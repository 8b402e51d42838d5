"""Reference quantities the tests compare mkdvlab's own paths against, and the
paper's two lemma checks on the cutoff.

Fourier differentiation of any order from a symbol built afresh is the
reference for mkdvlab's one derivative path, the pair (f_x, f_xx) from the
grid's cached symbols, and the interpolation check needs order 3.

mkdvlab computes the H^2 norm only inside the modulation fit, from a derivative
pair it already holds, the second-variation form only as the coercivity check's
product, and translated profiles and their offset partials only inside the fit.
These are the same quantities for a single field, written as functions the
tests can call on any input.  The fit evaluates each object on its own window;
`full_grid_fit` is the same Newton iteration with every evaluation and every
scalar product on the whole grid, the reference for what the windows leave out.
The stepper takes its cube on the n grid points; `padded_cube_hat` is the
dealiased cube, from one zero-padded transform of length 2n, which the
unpadded one equals to round-off on a resolved spectrum.  The coercivity check
takes products by FFT and reads its eigenvalues by Lanczos; `restricted_forms`
assembles the same bordered matrix densely, by row blocks from the strided
views of `circulant` and in-place Householder updates, and `dense_certify`
reads mu* and lambda_min_raw from two `eigvalsh` calls on it.

The cutoff inequality |Psi''| <= (sqrt(sigma)/2)|Psi'| and the weighted
interpolation bound X^2 <= A + eps X are lemmas of the almost-monotonicity
proof.  Both are theorems (the first is |tanh| <= 1, the second follows from it
by one integration by parts and Cauchy-Schwarz), so no kind runs them: as
audits they could not fail.  The tests check them, with the cutoff derivatives
only they use.  The same holds for the four coefficient inequalities behind the
weakened functional's growth: `LyapunovParams.validate` enforces them for cutoff
index 1 wherever parameters are built, and for j >= 2 a positive velocity makes
all four positive, so they are a test reference too.

The monotonicity kind audits M_j and the weakened functional.  The mass-augmented
F_j + omega M_j is not almost-monotone on data that satisfy the hypothesis either;
it is kept here for the negative control with v2 < 0, on which it falls far
beyond its drops on separating data.
"""

from dataclasses import dataclass

import numpy as np

from mkdvlab.errors import EigensolveFailure, NoConvergence, SingularJacobian
from mkdvlab.functionals import CutoffFamily, weighted_integrals
from mkdvlab.grid import Grid, _h2_sum, _power_symbol, derivative_pair, integrate
from mkdvlab.lyapunov import (
    CoercivityResult,
    LyapunovParams,
    _apply_inverse_sqrt,
    _inverse_sqrt_symbol,
    _second_variation_weights,
)
from mkdvlab.modulation import MAX_NEWTON_ITERS, ModulationState, split_offsets, total_offsets
from mkdvlab.profiles import WaveObject, _offset_partials, shape_pair


def spectral_derivative(g: Grid, f: np.ndarray, order: int) -> np.ndarray:
    """Fourier differentiation of the samples f of the given order (1..4)."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    return np.fft.irfft(_power_symbol(g, order) * np.fft.rfft(f), g.n)


def padded_cube_hat(uh: np.ndarray, n: int) -> np.ndarray:
    """The dealiased (u^3)^ for the rfft coefficients uh of n samples.

    The cube is taken on 2n points from the spectrum zero-padded to length 2n,
    which dealiases a cubic product exactly; the stepper's cube on the n grid
    points differs from it by its aliased part.  The factor 4 = (2n/n)^3 (n/2n)
    rescales the padded samples' cube to the grid's length.
    """
    pad = np.zeros(n + 1, dtype=complex)
    pad[: n // 2 + 1] = uh
    up = np.fft.irfft(pad, 2 * n)
    return 4.0 * np.fft.rfft(up * up * up)[: n // 2 + 1]


def circulant(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Dense matrix of the shift-invariant operator with the given rfft-layout symbol,
    as a read-only view on 2n - 1 stored numbers.

    The operator maps f to irfft(symbol rfft(f)); at symbol (ik)^order it is the
    spectral differentiation matrix.  It commutes with shifts, so it is the
    circulant C[i, j] = col[(i - j) mod n] of its first column, the image of a unit
    impulse: row i is the window of ext = (col[n-1], ..., col[0], col[n-1], ..., col[1])
    that starts at n - 1 - i.
    """
    col = np.fft.irfft(symbol, grid.n)
    ext = np.concatenate((col[::-1], col[:0:-1]))
    return np.lib.stride_tricks.sliding_window_view(ext, grid.n)[::-1]


# rows per block of the O(n^2) passes over the coercivity matrix: each holds a few
# (ROWS, n) arrays besides the matrix, never a second n x n one
ROWS = 128


def form_matrix(weights, g: Grid, out: np.ndarray) -> np.ndarray:
    """W A W, written into out, for A the matrix of h int (c2 w_xx^2 + c1 w_x^2 + c0 w^2)
    and W = B^-1/2.

    A = h sum_k D_k^T C_k D_k over the circulants D_0 = I, D_1, D_2 with symbols
    S_0 = 1, S_1, S_2, and W is the circulant of sigma^-1/2 (_inverse_sqrt_symbol), so
    W A W = h sum_k G_k C_k G_k^T with G_k = circulant(S_k sigma^-1/2), as G_0 and G_2
    are symmetric and G_1 is skew.  A product X G^T applies G to each row of X, so the
    sum is one row-by-row irfft of sum_k S_k sigma^-1/2 rfft(G_k C_k), and B is never built.
    The rows go by blocks, read from circulant's strided views, so no G_k is stored, and
    0.5 (A + A^T) is taken by blocks too.
    """
    n = g.n
    r = _inverse_sqrt_symbol(g)
    syms = (g.d2_symbol * r, g.d1_symbol * r, r)
    gs = [circulant(g, sym) for sym in syms]
    for i in range(0, n, ROWS):
        spec = 0.0
        for sym, G, c in zip(syms, gs, weights):
            spec = spec + sym * np.fft.rfft(G[i : i + ROWS] * c)
        out[i : i + ROWS] = g.h * np.fft.irfft(spec, n)
    # block i averages rows i.. with columns i..; earlier blocks are already symmetric
    for i in range(0, n, ROWS):
        avg = 0.5 * (out[i : i + ROWS, i:] + out[i:, i : i + ROWS].T)
        out[i : i + ROWS, i:] = avg
        out[i:, i : i + ROWS] = avg.T
    return out


def restrict_to_complement(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The symmetric X in an orthonormal basis of the complement of V's columns, in place.

    The m Householder reflectors H = I - 2 v v^T of V's QR factorization give
    Q = H_1 ... H_m, whose first m columns span V's columns, so the trailing
    block X[m:, m:] of Q^T X Q, which is returned, is X on the complement.  Each H X H
    is the rank-two update X - v w^T - w v^T, w = 2 X v - 2 (v^T X v) v, applied by
    row blocks.  X may extend past V's rows, as a border does: v is zero there, so
    the border b becomes H b.
    """
    qr = np.linalg.qr(V, mode="raw")[0].T  # numpy returns LAPACK geqrf's array transposed
    n, m = V.shape
    for k in range(m):
        v = np.zeros(len(X))  # LAPACK stores H_k's vector as (0, ..., 0, 1, qr[k+1:, k])
        v[k] = 1.0
        v[k + 1 : n] = qr[k + 1 :, k]
        v /= np.linalg.norm(v)
        Xv = X @ v
        w = 2.0 * Xv - 2.0 * (v @ Xv) * v
        for i in range(0, len(X), ROWS):
            X[i : i + ROWS] -= v[i : i + ROWS, None] * w
            X[i : i + ROWS] -= w[i : i + ROWS, None] * v
    return X[m:, m:]


def bordered_form(obj: WaveObject, pv: np.ndarray, g: Grid) -> np.ndarray:
    """The (n + 1)^2 matrix [[W A W, h W P], [h (W P)^T, 0]] for the matrix A of the
    second variation (_second_variation_weights) at t = 0 with Phi_j = 1, the penalty
    vector P = pv, the samples of obj at t = 0, and W = B^-1/2 (form_matrix)."""
    n = g.n
    M = np.empty((n + 1, n + 1))
    form_matrix(_second_variation_weights(pv, 1.0, *shape_pair(obj), g), g, M[:n, :n])
    M[n, :n] = M[:n, n] = g.h * _apply_inverse_sqrt(g, pv)
    M[n, n] = 0.0
    return M


def restricted_forms(obj: WaveObject, g: Grid) -> np.ndarray:
    """[[Ar, h pr], [h pr^T, 0]]: bordered_form restricted to the discrete-L^2 complement
    of W V, V the m <= 2 modulation directions (the fit's offset partials), so Ar = W A W
    and pr = W P there.  x = W y is orthogonal to V exactly when y is orthogonal to W V.
    One evaluation gives V and the profile, which has the bits of eval_object."""
    pv, dirs, _ = _offset_partials(obj, (), 0.0, g.x)
    M = bordered_form(obj, pv, g)
    return restrict_to_complement(_apply_inverse_sqrt(g, dirs).T, M)


def dense_certify(M: np.ndarray) -> CoercivityResult:
    """mu* and lambda_min_raw from the bordered matrix M = [[Ar, h pr], [h pr^T, 0]].

    For mu > 0, the Schur complement of the corner -mu in M - mu I is
    S(mu) = Ar - mu I + (h^2/mu) pr pr^T, and Haynsworth's inertia formula (Linear
    Algebra Appl. 1, 1968) gives neg(M - mu I) = 1 + neg(S(mu)).  M's smallest
    eigenvalue is at most its zero corner, so S(mu) >= 0 exactly when mu <= theta_1,
    M's second-smallest eigenvalue: mu* = theta_1.  Below eigvalsh's backward error
    N eps max|lam|, lam the N eigenvalues of Ar, mu* is noise and reads 0.
    """
    try:
        lam = np.linalg.eigvalsh(M[:-1, :-1])
        theta = float(np.linalg.eigvalsh(M)[1])
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    floor = len(lam) * np.finfo(float).eps * np.max(np.abs(lam))
    return CoercivityResult(theta if theta >= floor else 0.0, float(lam[0]))


def modulation_directions(o, shifts, t: float, g: Grid) -> np.ndarray:
    """The offset partials of one shifted profile, one row each, as the fit evaluates them."""
    return np.array(_offset_partials(o, shifts, t, g.x)[1])


def shifted_profile_sum(cfg, t: float, g, shifts) -> np.ndarray:
    """Sum of the profiles translated by per-object offsets, in object order.

    Each profile is the value the modulation fit evaluates, so at the fit's
    offsets the sum has the bits the fit subtracts from u.
    """
    total = np.zeros_like(g.x)
    for o, sh in zip(cfg.objects, shifts, strict=True):
        total += _offset_partials(o, sh, t, g.x)[0]
    return total


def full_grid_fit(g: Grid, u: np.ndarray, cfg, t: float, guess=None) -> ModulationState:
    """fit_translations with every object evaluated on the whole grid.

    The same Newton iteration, stopping rule, basin check and Jacobian test as
    the fit, but each profile, offset partial and Hessian is evaluated at every
    node and each scalar product sums over the whole grid; every window is the
    whole grid.
    """
    x = g.x
    m = total_offsets(cfg)
    radius = 0.5 * min(b for _, b in map(shape_pair, cfg.objects))
    y = np.zeros(m) if guess is None else np.array(guess, dtype=float)
    h = g.h
    for it in range(MAX_NEWTON_ITERS):
        offsets = split_offsets(cfg, y)
        parts = [_offset_partials(o, sh, t, x) for o, sh in zip(cfg.objects, offsets)]
        w = u - sum(value for value, _, _ in parts)
        dirs = [d for _, ds, _ in parts for d in ds]
        G = np.array([h * np.sum(d * w) for d in dirs])
        if np.max(np.abs(G)) < 1e-12:
            pair = derivative_pair(g, w)
            w_norm = float(np.sqrt(_h2_sum(g, w, *pair)))
            if w_norm > radius:
                raise NoConvergence(f"residual H2 norm {w_norm:.3e} exceeds {radius:.3e}")
            return ModulationState(
                offsets=y,
                w=w,
                w_pair=pair,
                w_h2=w_norm,
                ortho_residuals=G,
                iterations=it,
                windows=[slice(0, g.n)] * cfg.J,
                profiles=[value for value, _, _ in parts],
            )
        J = np.empty((m, m))
        for a, da in enumerate(dirs):
            for b in range(a, m):
                J[a, b] = J[b, a] = -h * np.sum(da * dirs[b])
        i = 0
        for _, ds, hess in parts:
            k = i + len(ds)
            J[i:k, i:k] += [[h * np.sum(sec * w) for sec in row] for row in hess()]
            i = k
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularJacobian(f"modulation Jacobian condition number {cond:.3e}")
        y = y - np.linalg.solve(J, G)
    raise NoConvergence(f"no convergence after {MAX_NEWTON_ITERS} iterations at t={t:.6g}")


def h2_norm_sq(g: Grid, f: np.ndarray) -> float:
    """Discrete squared H^2 norm: integral of f^2 + f_x^2 + f_xx^2."""
    fx = spectral_derivative(g, f, 1)
    fxx = spectral_derivative(g, f, 2)
    return integrate(g, f**2) + integrate(g, fx**2) + integrate(g, fxx**2)


def quadratic_form_H(
    g: Grid, w: np.ndarray, profile: np.ndarray, j: int, p: LyapunovParams, t: float
) -> float:
    """Second-variation quadratic form of the Lyapunov functional H_j at a profile.

    The integrand is written out in mkdvlab.lyapunov._second_variation_weights.
    """
    c2, c1, c0 = _second_variation_weights(profile, p.fam.weight(j, t, g.x), *p.shape(j), g)
    wx = spectral_derivative(g, w, 1)
    wxx = spectral_derivative(g, w, 2)
    return integrate(g, c2 * wxx**2 + c1 * wx**2 + c0 * w**2)


def psi_prime(sigma: float, x):
    """Analytic derivative -(sqrt(sigma)/(2 pi)) sech(sqrt(sigma) x / 2)."""
    rs = np.sqrt(sigma)
    return -(rs / (2.0 * np.pi)) / np.cosh(0.5 * rs * np.asarray(x, dtype=float))


def psi_second(sigma: float, x):
    """Analytic second derivative (sigma/(4 pi)) sech(.) tanh(.)."""
    rs = np.sqrt(sigma)
    z = 0.5 * rs * np.asarray(x, dtype=float)
    return (sigma / (4.0 * np.pi)) * np.tanh(z) / np.cosh(z)


def derivative_inequality_holds(first, second, sigma: float) -> bool:
    """Check |w''| <= (sqrt(sigma)/2)|w'| samplewise for given derivative samples."""
    return bool(np.all(np.abs(second) <= 0.5 * np.sqrt(sigma) * np.abs(first)))


def cutoff_derivative_inequality(sigma: float, g: Grid) -> bool:
    """The analytic cutoff satisfies |Psi''| <= (sqrt(sigma)/2)|Psi'| at every node."""
    x = g.x
    return derivative_inequality_holds(psi_prime(sigma, x), psi_second(sigma, x), sigma)


def weight_x(fam: CutoffFamily, j: int, t: float, x) -> np.ndarray:
    """Spatial derivative of Phi_j (zero for j = J)."""
    fam._check_index(j)
    x = np.asarray(x, dtype=float)
    if j == fam.J:
        return np.zeros_like(x)
    return psi_prime(fam.sigma, x - fam.speeds[j - 1] * t)


@dataclass
class InterpolationReport:
    holds_quadratic: bool  # X^2 <= A + eps X
    holds_linear: bool  # X <= eps + sqrt(A)
    ratio: float  # X^2 / (A + eps X), <= 1 when the bound holds


def interpolation_inequality_check(
    g: Grid, u: np.ndarray, fam: CutoffFamily, j: int
) -> InterpolationReport:
    """Check X^2 <= A + eps X with the |Phi_jx|-weighted Sobolev quantities at t = 0."""
    wx = np.abs(weight_x(fam, j, 0.0, g.x))
    u1, u2 = derivative_pair(g, u)
    u3 = spectral_derivative(g, u, 3)
    i1 = integrate(g, u1**2 * wx)
    i2 = integrate(g, u2**2 * wx)
    i3 = integrate(g, u3**2 * wx)
    X = np.sqrt(i2)
    A = np.sqrt(i1 * i3)
    eps = 0.5 * np.sqrt(fam.sigma) * np.sqrt(i1)
    denom = A + eps * X
    tol = 1e-12 * max(1.0, X**2)
    return InterpolationReport(
        holds_quadratic=bool(X**2 <= denom + tol),
        holds_linear=bool(X <= eps + np.sqrt(A) + tol),
        ratio=float(X**2 / denom) if denom > 0 else 0.0,
    )


@dataclass
class CoefficientReport:
    """The four scalar positivity checks behind the weakened-functional growth."""

    values: tuple[float, float, float, float]

    @property
    def holds(self) -> tuple[bool, bool, bool, bool]:
        """c1, c2, c3 >= 0 and c4 > 0."""
        c1, c2, c3, c4 = self.values
        return (c1 >= 0, c2 >= 0, c3 >= 0, c4 > 0)

    @property
    def all_hold(self) -> bool:
        return all(self.holds)


def coefficient_positivity(p: LyapunovParams, j: int) -> CoefficientReport:
    """Evaluate the four coefficient inequalities for cutoff index j < J."""
    if not p.fam.speeds:
        raise ValueError("coefficient positivity needs at least one cutoff (J >= 2)")
    if not 1 <= j <= len(p.fam.speeds):
        raise IndexError(f"j must be in 1..{len(p.fam.speeds)}")
    s = p.fam.sigma
    a, b = p.shape(j)
    d = b**2 - a**2
    r = a**2 + b**2
    m = p.fam.speeds[j - 1]
    c1 = 3.0 * d + 3.0 * p.nu1 * r
    c2 = 3.0 * d * np.sqrt(s) + 2.0 * 3.0**0.25 * (1 - p.nu1) ** 0.25 * p.nu2**0.75 * r**1.5
    c3 = 3.0 * d * s / 4.0 + 1.5 * p.nu3 * r**2
    c4 = 1.5 * p.nu * r**2 + m * d - 1.5 * p.nu_prime * r**2
    return CoefficientReport(values=(float(c1), float(c2), float(c3), float(c4)))


def mass_augmented_F(traj, p: LyapunovParams, j: int) -> list[float]:
    """F_j + omega M_j at each snapshot, omega = 1e-3 min_j (a_j^2 + b_j^2)^2 m_j."""
    omega = 1e-3 * min((a**2 + b**2) ** 2 * m for (a, b), m in zip(p.shape_pairs, p.fam.speeds))
    out = []
    for t, row in zip(traj.times, traj.values):
        M, _, F = weighted_integrals(traj.grid, row, [p.fam.weight(j, t, traj.grid.x)])[0]
        out.append(float(F + omega * M))
    return out


def worst_drop(values, slack) -> float:
    """max over t1 <= t2 of values(t1) - slack(t1) - values(t2), and 0 if none is
    positive: the largest decrease beyond the slack, pair by pair."""
    return max(
        [0.0]
        + [v1 - s1 - v2 for i, (v1, s1) in enumerate(zip(values, slack)) for v2 in values[i:]]
    )
