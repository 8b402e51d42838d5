"""Reference quantities the tests compare mkdvlab's own paths against.

mkdvlab computes the H^2 norm only inside the modulation fit, from a derivative
pair it already holds, and the second-variation form only as the coercivity
check's matrix.  These are the same quantities for a single field, written as
functions the tests can call on any input.
"""

from mkdvlab.grid import Field, integrate, spectral_derivative
from mkdvlab.lyapunov import LyapunovParams, _second_variation_weights


def h2_norm_sq(f: Field) -> float:
    """Discrete squared H^2 norm: integral of f^2 + f_x^2 + f_xx^2."""
    g = f.grid
    fx = spectral_derivative(f, 1).values
    fxx = spectral_derivative(f, 2).values
    return integrate(g, f.values**2) + integrate(g, fx**2) + integrate(g, fxx**2)


def quadratic_form_H(w: Field, profile: Field, j: int, p: LyapunovParams, t: float) -> float:
    """Second-variation quadratic form of the Lyapunov functional H_j at a profile.

    The integrand is written out in mkdvlab.lyapunov._second_variation_weights.
    """
    if w.grid is not profile.grid and w.grid != profile.grid:
        raise ValueError("w and profile must share a grid")
    g = w.grid
    c2, c1, c0 = _second_variation_weights(
        profile.values, p.fam.weight(j, t, g.x), *p.shape(j), g
    )
    wx = spectral_derivative(w, 1).values
    wxx = spectral_derivative(w, 2).values
    return integrate(g, c2 * wxx**2 + c1 * wx**2 + c0 * w.values**2)
