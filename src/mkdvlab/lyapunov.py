"""Parameter selection, Lyapunov/weakened functionals, monotonicity tracking and
the discrete coercivity eigencheck.

Parameter defaults follow the midpoint rule: every quantity that only has to
satisfy an open condition is placed at the midpoint of its admissible
interval, which maximizes slack and is reproducible.

The monotonicity audit works on arrays: T snapshots' localized integrals give a
(T, J-1, 2) block of (M_j, weakened F_j) values, axis 0 the snapshot time and
axis 1 the cutoff index j = 1..J-1, and one (J-1, 2) array of worst drops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EigensolveFailure, EmptyAdmissibleInterval, HypothesisViolated
from .functionals import CutoffFamily, make_cutoff_family, weighted_integrals
from .grid import Grid, circulant, derivative_pair
from .profiles import (
    OrderedConfiguration,
    WaveObject,
    _offset_partials,
    center,
    eval_object,
    shape_pair,
)

# slack floor of the monotonicity audit: the decrease any functional may show
# on top of the decaying term C exp(-2 varpi t)
DROP_BUDGET = 1e-5


@dataclass(frozen=True)
class LyapunovParams:
    """nu1, the shape pairs and the cutoff family; the other nu's follow from nu1."""

    nu1: float
    shape_pairs: tuple[tuple[float, float], ...]
    fam: CutoffFamily

    @property
    def nu(self) -> float:
        return self.nu1 + (2.0 / 3.0) * (1.0 - self.nu1)

    @property
    def nu_prime(self) -> float:
        return self.nu1 + (1.0 - self.nu1) / 3.0

    @property
    def nu2(self) -> float:
        """nu2 = nu3, which split the gap nu_prime - nu1 evenly."""
        return 0.5 * (self.nu_prime - self.nu1)

    nu3 = nu2

    def validate(self):
        """Re-verify every inequality independently of how the values were built.

        Together they give the four coefficient conditions of cutoff index 1: c1 > 0
        is the first-shape positivity, c4 > 0 the m1 constraint, and c2, c3 >= 0
        the sigma cap.
        """
        a1, b1 = self.shape_pairs[0]
        if not 0 < self.nu1 < 1:
            raise ValueError(f"nu1={self.nu1} outside (0,1)")
        if (b1**2 - a1**2) + self.nu1 * (a1**2 + b1**2) <= 0:
            raise ValueError("nu1 does not satisfy the first-shape positivity")
        if self.nu2 <= 0:
            raise ValueError("nu2 = nu3 must be positive")
        if self.fam.speeds:
            m1 = self.fam.speeds[0]
            if m1 * (b1**2 - a1**2) <= 0.5 * (self.nu1 - 1) * (a1**2 + b1**2) ** 2:
                raise ValueError("m1 violates the quadratic tuning constraint")
        if self.fam.sigma > _sigma_cap_for_first_shape(self):
            raise ValueError("sigma exceeds the cap of the first shape's coefficient bounds")

    def shape(self, j: int) -> tuple[float, float]:
        return self.shape_pairs[j - 1]


def _sigma_cap_for_first_shape(p: LyapunovParams) -> float:
    """Largest sigma keeping the two sigma-dependent coefficient bounds nonnegative.

    Only binds when b1^2 - a1^2 < 0; both bounds follow from solving the
    coefficient inequalities for sigma.
    """
    a1, b1 = p.shape_pairs[0]
    d = b1**2 - a1**2
    if d >= 0:
        return np.inf
    r = a1**2 + b1**2
    cap2 = (2.0 * 3.0**0.25 * (1 - p.nu1) ** 0.25 * p.nu2**0.75 * r**1.5 / (3.0 * abs(d))) ** 2
    cap3 = 2.0 * p.nu3 * r**2 / abs(d)
    return min(cap2, cap3)


def select_parameters(
    cfg: OrderedConfiguration, sigma: float, override: bool = False
) -> LyapunovParams:
    """Choose nu1 and the cutoff speeds for an ordered configuration.

    nu1 sits at the midpoint of its admissible interval, the cutoff speeds
    are interval midpoints, and sigma is shrunk when the first shape pair
    forces a smaller value.  Without v2 > 0 (`positive_v2`) there is no first
    cutoff speed, so HypothesisViolated is raised; override=True lets a lone
    object through, with no cutoff, for the coercivity check, while J >= 2
    with v2 <= 0 still ends in EmptyAdmissibleInterval.
    """
    if not cfg.positive_v2 and not override:
        velocities = ", ".join(f"{v:g}" for v in cfg.velocities)
        raise HypothesisViolated(
            "the cutoff audits need a positive second-smallest velocity "
            f"(sorted velocities: {velocities})"
        )
    pairs = tuple(cfg.shape_pairs())
    a1, b1 = pairs[0]
    d1 = b1**2 - a1**2
    r1 = a1**2 + b1**2
    nu1_min = max(0.0, -d1 / r1)
    nu1 = 0.5 * (1.0 + nu1_min)

    v = cfg.velocities
    speeds = []
    if cfg.J >= 2:
        lo = max(0.0, v[0])
        hi = v[1]
        if d1 < 0:
            # the quadratic tuning constraint caps m1 from above
            hi = min(hi, 0.5 * (nu1 - 1.0) * r1**2 / d1)
        if not lo < hi:
            raise EmptyAdmissibleInterval(
                f"no admissible m1 in ({lo}, {hi}) for velocities {v}"
            )
        speeds.append(0.5 * (lo + hi))
        for j in range(2, cfg.J):
            speeds.append(0.5 * (v[j - 1] + v[j]))

    params = LyapunovParams(nu1, pairs, make_cutoff_family(cfg, speeds, sigma))
    cap = _sigma_cap_for_first_shape(params)
    if params.fam.sigma > 0.9 * cap:
        params = replace(params, fam=replace(params.fam, sigma=float(0.9 * cap)))
    params.validate()
    return params


def _weakened(M, E, F, shape: tuple[float, float], nu: float):
    """F_j + 2(b^2-a^2) E_j + nu (a^2+b^2)^2 M_j (localized convention), elementwise."""
    a, b = shape
    return F + 2.0 * (b**2 - a**2) * E + nu * (a**2 + b**2) ** 2 * M


def _second_variation_weights(
    pv: np.ndarray, phi: np.ndarray | float, a: float, b: float, g: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (c2, c1, c0) of the second variation int c2 w_xx^2 + c1 w_x^2 + c0 w^2 of
    the Lyapunov functional H_j at the profile P (samples pv) with weight Phi_j (phi).

    From the integrand [1/2 w_xx^2 - 5/2 w_x^2 P^2 + 5/2 w^2 P_x^2
    + 5 w^2 P P_xx + 15/4 w^2 P^4] Phi_j + (b^2-a^2)[w_x^2 - 3 w^2 P^2] Phi_j
    + 1/2 (a^2+b^2)^2 w^2 Phi_j.
    """
    px, pxx = derivative_pair(g, pv)
    pv2 = pv * pv
    d = b**2 - a**2
    c1 = (d - 2.5 * pv2) * phi
    c0 = (
        2.5 * px**2 + 5.0 * pv * pxx + 3.75 * (pv2 * pv2) - 3.0 * d * pv2
        + 0.5 * (a**2 + b**2) ** 2
    ) * phi
    return 0.5 * phi, c1, c0


def _inverse_sqrt_symbol(g: Grid) -> np.ndarray:
    """sigma^-1/2, sigma = h (1 + |S1|^2 + |S2|^2) the symbol of the matrix B of
    h int (w_xx^2 + w_x^2 + w^2), so its circulant W is B^-1/2 and W B W = I."""
    return 1.0 / np.sqrt(g.h * (1.0 + np.abs(g.d1_symbol) ** 2 + np.abs(g.d2_symbol) ** 2))


def _apply_inverse_sqrt(g: Grid, v: np.ndarray) -> np.ndarray:
    """W v for each row v of the array, by FFT."""
    return np.fft.irfft(_inverse_sqrt_symbol(g) * np.fft.rfft(v), g.n)


# rows per block of the O(n^2) passes over the coercivity matrix: each holds a few
# (_ROWS, n) arrays besides the matrix, never a second n x n one
_ROWS = 128


def _form_matrix(weights, g: Grid, out: np.ndarray) -> np.ndarray:
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
    for i in range(0, n, _ROWS):
        spec = 0.0
        for sym, G, c in zip(syms, gs, weights):
            spec = spec + sym * np.fft.rfft(G[i : i + _ROWS] * c)
        out[i : i + _ROWS] = g.h * np.fft.irfft(spec, n)
    # block i averages rows i.. with columns i..; earlier blocks are already symmetric
    for i in range(0, n, _ROWS):
        avg = 0.5 * (out[i : i + _ROWS, i:] + out[i:, i : i + _ROWS].T)
        out[i : i + _ROWS, i:] = avg
        out[i:, i : i + _ROWS] = avg.T
    return out


@dataclass
class CoercivityResult:
    """Outcome of the discrete coercivity eigencheck."""

    mu: float  # largest certified penalty/coercivity constant (0 if none)
    lambda_min_raw: float  # smallest eigenvalue of the orthogonalized bare form


def _restrict_to_complement(V: np.ndarray, X: np.ndarray) -> np.ndarray:
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
        for i in range(0, len(X), _ROWS):
            X[i : i + _ROWS] -= v[i : i + _ROWS, None] * w
            X[i : i + _ROWS] -= w[i : i + _ROWS, None] * v
    return X[m:, m:]


def _bordered_form(obj: WaveObject, pv: np.ndarray, g: Grid) -> np.ndarray:
    """The (n + 1)^2 matrix [[W A W, h W P], [h (W P)^T, 0]] for the matrix A of the
    second variation (_second_variation_weights) at t = 0 with Phi_j = 1, the penalty
    vector P = pv, the samples of obj at t = 0, and W = B^-1/2 (_form_matrix)."""
    n = g.n
    M = np.empty((n + 1, n + 1))
    _form_matrix(_second_variation_weights(pv, 1.0, *shape_pair(obj), g), g, M[:n, :n])
    M[n, :n] = M[:n, n] = g.h * _apply_inverse_sqrt(g, pv)
    M[n, n] = 0.0
    return M


def _restricted_forms(obj: WaveObject, g: Grid) -> np.ndarray:
    """[[Ar, h pr], [h pr^T, 0]]: _bordered_form restricted to the discrete-L^2 complement
    of W V, V the m <= 2 modulation directions (the fit's offset partials), so Ar = W A W
    and pr = W P there.  x = W y is orthogonal to V exactly when y is orthogonal to W V.
    One evaluation gives V and the profile, which has the bits of eval_object."""
    pv, dirs, _ = _offset_partials(obj, (), 0.0, g.x)
    M = _bordered_form(obj, pv, g)
    return _restrict_to_complement(_apply_inverse_sqrt(g, dirs).T, M)


def _certify(M: np.ndarray) -> CoercivityResult:
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


def coercivity_check(obj: WaveObject, p: LyapunovParams, j: int, g: Grid) -> CoercivityResult:
    """mu*, the largest mu with A + (h^2/mu) P P^T - mu B >= 0 on the complement of the
    modulation directions, for A the matrix of the second variation, P the penalty vector and
    B the matrix of h int (w_xx^2 + w_x^2 + w^2), at t = 0.  The form falls in the Loewner
    order as mu grows, so every mu in (0, mu*] is certified.

    With Phi_j = 1 (j = J), B is the circulant of sigma = h (1 + |S1|^2 + |S2|^2), and
    x = W y, W = B^-1/2 the circulant of sigma^-1/2, turns the pencil into the standard
    problem for Ar = W A W on the complement of W V, with penalty vector pr = W P; by
    Courant-Fischer its eigenvalues are the pencil's.  Then mu* is an eigenvalue of the
    bordered matrix [[Ar, h pr], [h pr^T, 0]] (_certify), which is assembled and
    restricted in one (n + 1)^2 array (_restricted_forms); no eigenvector is formed.
    """
    if j != p.fam.J:
        raise ValueError(f"coercivity check needs Phi_j = 1, so j = J = {p.fam.J}; got j = {j}")
    if g.n > 4096:
        raise ValueError("dense eigensolve limited to n <= 4096")
    return _certify(_restricted_forms(obj, g))


def monotonicity_report(
    trips: np.ndarray, times: np.ndarray, p: LyapunovParams, varpi: float, C: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record decreases of the two audited functionals beyond the decaying slack.

    The functionals are M_j and the weakened F for each cutoff index j = 1..J-1, the
    two whose almost-monotonicity the uniqueness argument rests on, both read from
    trips, the (T, J-1, 3) weighted_integrals rows of Phi_1..Phi_{J-1} at times.  Returns

    - values, (T, J-1, 2): (M_j, weakened F_j) at snapshot t_i and index j = k + 1
      in values[i, k];
    - slack, (T,): C exp(-2 varpi t_i) + DROP_BUDGET, the decrease allowed from t_i
      to any later time;
    - drops, (J-1, 2): the largest decrease of each functional beyond the slack,
      max over t1 <= t2 of value(t1) - slack(t1) - value(t2), and 0 if none is
      positive (0 = verified).

    Nothing is raised on violations.
    """
    values = np.empty(trips.shape[:2] + (2,))
    values[..., 0] = trips[..., 0]
    for k in range(trips.shape[1]):
        values[:, k, 1] = _weakened(*trips[:, k].T, p.shape(k + 1), p.nu)
    slack = C * np.exp(-2.0 * varpi * times) + DROP_BUDGET
    # the running maximum makes the pairwise scan linear: the worst decrease from
    # any t1 < t2 is (max over t1 <= t2 of value - slack) - value(t2)
    best = np.maximum.accumulate(values - slack[:, None, None], axis=0)
    drops = np.maximum(best - values, 0.0).max(axis=0)
    return values, slack, drops


def calibrate_slack(cfg: OrderedConfiguration, p: LyapunovParams, g: Grid) -> tuple[float, float]:
    """Diagnostic (varpi, C) for the monotonicity slack of J >= 2 objects, from the
    profiles at t = 0.

    varpi is tied to the cutoff transition scale and the slowest profile
    decay; C scales with the total functional size of the profiles, damped
    by the initial separation measured in units of the speed gap.
    """
    tau0 = p.fam.tau0
    min_b = min(b for _, b in p.shape_pairs)
    varpi = 0.25 * tau0 * min(np.sqrt(p.fam.sigma), min_b)

    scale = 0.0
    for o in cfg.objects:
        m2, E, F = weighted_integrals(g, eval_object(o, 0.0, g.x), (1.0,))[0]
        scale += m2 + abs(E) + abs(F)

    centers = sorted(center(o, 0.0) for o in cfg.objects)
    t_sep = min(b2 - a2 for a2, b2 in zip(centers, centers[1:])) / (2.0 * tau0)
    C = scale * np.exp(-2.0 * varpi * t_sep)
    return float(varpi), float(C)
