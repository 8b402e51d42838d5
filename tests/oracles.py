"""Reference quantities the tests compare mkdvlab's own paths against.

mkdvlab computes the H^2 norm only inside the modulation fit, from a derivative
pair it already holds, the second-variation form only as the coercivity check's
matrix, and translated profiles only inside the fit.  These are the same
quantities for a single field, written as functions the tests can call on any
input.
"""

import numpy as np

from mkdvlab.grid import Field, integrate, make_field, spectral_derivative
from mkdvlab.lyapunov import LyapunovParams, _second_variation_weights
from mkdvlab.profiles import _offset_partials


def shifted_profile_sum(cfg, t: float, g, shifts) -> Field:
    """Sum of the profiles translated by per-object offsets, in object order.

    Each profile is the value the modulation fit evaluates, so at the fit's
    offsets the sum has the bits the fit subtracts from u.
    """
    total = np.zeros_like(g.x)
    for o, sh in zip(cfg.objects, shifts, strict=True):
        total += _offset_partials(o, sh, t, g.x)[0]
    return make_field(g, total)


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
