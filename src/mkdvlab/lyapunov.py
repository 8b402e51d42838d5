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

from .errors import EigensolveFailure, HypothesisViolated
from .functionals import CutoffFamily, make_cutoff_family, weighted_integrals
from .grid import Grid, derivative_pair
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
    cutoff speed, so HypothesisViolated is raised; override=True admits a lone
    object only, with no cutoff, for the coercivity check.  With v2 > 0, m1's
    interval is never empty: max(0, v1) < v2, and the cap binds only when b1 < a1,
    where v1 < 0 and nu1 < 1 put 0 below the cap.
    """
    if not (cfg.positive_v2 or (override and cfg.J == 1)):
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


def _form_product(weights, g: Grid):
    """y -> W A W y for each row y, by FFT, for A the matrix of
    h int (c2 w_xx^2 + c1 w_x^2 + c0 w^2) and W = B^-1/2.

    A = h sum_k D_k^T C_k D_k over the circulants D_k of the symbols S_0 = 1, S_1, S_2,
    so W A W = h sum_k G_k C_k G_k^T, G_k the circulant of S_k sigma^-1/2, whose
    transpose has the conjugate symbol: one transform of y, a batch of three inverse
    ones, the weights, a batch of three transforms and one inverse transform.
    """
    r = _inverse_sqrt_symbol(g)
    syms = np.array((g.d2_symbol * r, g.d1_symbol * r, r))
    c = np.array(np.broadcast_arrays(*weights))

    def product(y: np.ndarray) -> np.ndarray:
        parts = np.fft.irfft(syms.conj() * np.fft.rfft(y)[..., None, :], g.n)
        return g.h * np.fft.irfft((syms * np.fft.rfft(c * parts)).sum(axis=-2), g.n)

    return product


@dataclass
class CoercivityResult:
    """Outcome of the discrete coercivity eigencheck."""

    mu: float  # largest certified penalty/coercivity constant (0 if none)
    lambda_min_raw: float  # smallest eigenvalue of the orthogonalized bare form


def _bordered_operator(weights, pv: np.ndarray, dirs, g: Grid):
    """(y -> Ar y, h pr): Ar = W A W (_form_product) and pr = W P, P = pv, on the
    complement of W V, V the rows of dirs (with none, the whole space).  W V's m
    Householder reflectors give Q = H_1 ... H_m, whose first m columns span W V, so
    Ar y is the tail of Q^T W A W Q (0, y) and pr the tail of Q^T W P."""
    form = _form_product(weights, g)
    qr, tau = np.linalg.qr(_apply_inverse_sqrt(g, np.reshape(dirs, (-1, g.n))).T, mode="raw")
    # LAPACK geqrf's array, transposed: H_k = I - tau_k v v^T, v = (0, .., 0, 1, qr[k, k+1:])
    hs = [(np.concatenate((np.zeros(k), [1.0], qr[k, k + 1 :])), t) for k, t in enumerate(tau)]
    m = len(hs)

    def reflect(x: np.ndarray, order) -> np.ndarray:
        for v, t in order:
            x -= t * (v @ x) * v
        return x

    def product(y: np.ndarray) -> np.ndarray:
        return reflect(form(reflect(np.concatenate((np.zeros(m), y)), hs[::-1])), hs)[m:]

    return product, g.h * reflect(_apply_inverse_sqrt(g, pv), hs)[m:]


LANCZOS_MAX_ITERS = 1000  # per eigenproblem, then EigensolveFailure
_RITZ_TOL = 1e-12  # a Ritz pair's converged residual, relative to max|Ritz value|


def _lanczos(product, q: np.ndarray, wanted: tuple[int, ...]) -> np.ndarray:
    """The ascending Ritz values of the symmetric operator product from the start q,
    once the Ritz pairs at the indices wanted have converged.

    Lanczos (J. Res. Nat. Bur. Standards 45, 1950) with full reorthogonalization.  The
    residual of the pair (theta_i, Q s_i) is beta_k |s_i[-1]|, read from the tridiagonal
    T's eigendecomposition at k = 8, 10, 12, 15, ... (each a quarter more) and at the
    last iteration, or at an invariant subspace, whose Ritz values are eigenvalues.
    """
    N = len(q)
    last = min(N, LANCZOS_MAX_ITERS)
    Q, alpha, beta, check = np.empty((0, N)), [], [], 8
    for k in range(last):
        if k == len(Q):
            Q = np.concatenate((Q, np.empty((max(k, 8), N))))
        Q[k] = q / np.linalg.norm(q)
        q = product(Q[k])
        alpha.append(Q[k] @ q)
        for _ in range(2):  # twice is enough (Giraud et al., Numer. Math. 101, 2005)
            q -= Q[: k + 1].T @ (Q[: k + 1] @ q)
        b = float(np.linalg.norm(q))
        if k + 1 in (check, last) or b == 0.0:
            try:
                theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            except np.linalg.LinAlgError as exc:
                raise EigensolveFailure(str(exc)) from exc
            if b * np.max(np.abs(S[-1, list(wanted)])) <= _RITZ_TOL * np.max(np.abs(theta)):
                return theta
            check += check // 4
        beta.append(b)
    raise EigensolveFailure(f"Lanczos did not converge in {last} iterations")


def _start(N: int) -> np.ndarray:
    """frac(i phi) - 1/2, i = 1..N, phi the golden ratio: fixed, with no reflection
    symmetry.  A centred profile's form commutes with the grid's reflection and its
    penalty vector is even, so an even start would miss the odd eigenvectors."""
    return np.modf(np.arange(1, N + 1) * (0.5 + 0.5 * np.sqrt(5.0)))[0] - 0.5


def _certify(product, b: np.ndarray) -> CoercivityResult:
    """mu* and lambda_min_raw of M = [[Ar, b], [b^T, 0]], from y -> Ar y and b = h pr.

    For mu > 0, the Schur complement of the corner -mu in M - mu I is
    S(mu) = Ar - mu I + (h^2/mu) pr pr^T, and Haynsworth's inertia formula (Linear
    Algebra Appl. 1, 1968) gives neg(M - mu I) = 1 + neg(S(mu)).  M's smallest
    eigenvalue is at most its zero corner, so S(mu) >= 0 exactly when mu <= theta_1,
    M's second-smallest eigenvalue: mu* = theta_1, by Lanczos on M.  Below a dense
    eigensolve's backward error N eps max|lam|, lam Ar's eigenvalues, mu* reads 0.
    """
    N = len(b)

    def bordered(v: np.ndarray) -> np.ndarray:
        return np.append(product(v[:N]) + b * v[N], b @ v[:N])

    lam = _lanczos(product, _start(N), (0,))
    theta = float(_lanczos(bordered, _start(N + 1), (0, 1))[1])
    floor = N * np.finfo(float).eps * max(-lam[0], lam[-1])
    return CoercivityResult(theta if theta >= floor else 0.0, float(lam[0]))


def coercivity_check(obj: WaveObject, p: LyapunovParams, j: int, g: Grid) -> CoercivityResult:
    """mu*, the largest mu with A + (h^2/mu) P P^T - mu B >= 0 on the complement of the
    modulation directions V, for A the matrix of the second variation, P the penalty
    vector and B the matrix of h int (w_xx^2 + w_x^2 + w^2), at t = 0.  The form falls in
    the Loewner order as mu grows, so every mu in (0, mu*] is certified.

    With Phi_j = 1 (j = J), x = W y, W = B^-1/2 the circulant of sigma^-1/2, turns the
    pencil into the standard problem for Ar = W A W on the complement of W V, with
    penalty vector pr = W P (Courant-Fischer), which _certify solves from products
    (_bordered_operator).  One evaluation gives V and P, with eval_object's bits.
    """
    if j != p.fam.J:
        raise ValueError(f"coercivity check needs Phi_j = 1, so j = J = {p.fam.J}; got j = {j}")
    if g.n > 4096:
        raise ValueError("coercivity check limited to n <= 4096")
    pv, dirs, _ = _offset_partials(obj, (), 0.0, g.x)
    weights = _second_variation_weights(pv, 1.0, *shape_pair(obj), g)
    return _certify(*_bordered_operator(weights, pv, dirs, g))


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
