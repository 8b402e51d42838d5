"""Parameter selection, Lyapunov/weakened functionals, monotonicity tracking,
interpolation and coefficient checks, and the discrete coercivity eigencheck.

Parameter defaults follow the midpoint rule: every quantity that only has to
satisfy an open condition is placed at the midpoint of its admissible
interval, which maximizes slack and is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EigensolveFailure, EmptyAdmissibleInterval, HypothesisViolated
from .evolution import Trajectory
from .functionals import (
    CutoffFamily,
    LocalizedTriple,
    localized_triple,
    make_cutoff_family,
    mass,
    energy,
    second_energy,
)
from .grid import (
    Field,
    Grid,
    _fourier_symbol,
    derivative_matrix,
    integrate,
    make_field,
    spectral_derivative,
)
from .profiles import (
    OrderedConfiguration,
    WaveObject,
    center,
    eval_object,
    shape_pair,
)
from .modulation import modulation_directions

# slack floor of the monotonicity audit: the decrease any functional may show
# on top of the decaying term C exp(-2 varpi t)
DROP_BUDGET = 1e-5


@dataclass(frozen=True)
class LyapunovParams:
    """The scalar tuning constants and the cutoff family they produced."""

    nu1: float
    nu: float
    nu_prime: float
    nu2: float
    nu3: float
    shape_pairs: tuple[tuple[float, float], ...]
    fam: CutoffFamily

    def validate(self):
        """Re-verify every invariant independently of how the values were built."""
        a1, b1 = self.shape_pairs[0]
        if not 0 < self.nu1 < 1:
            raise ValueError(f"nu1={self.nu1} outside (0,1)")
        if (b1**2 - a1**2) + self.nu1 * (a1**2 + b1**2) <= 0:
            raise ValueError("nu1 does not satisfy the first-shape positivity")
        if abs(self.nu - (self.nu1 + (2.0 / 3.0) * (1 - self.nu1))) > 1e-14:
            raise ValueError("nu identity violated")
        if abs(self.nu_prime - (self.nu1 + (1 - self.nu1) / 3.0)) > 1e-14:
            raise ValueError("nu_prime identity violated")
        if abs(self.nu1 + self.nu2 + self.nu3 - self.nu_prime) > 1e-14:
            raise ValueError("nu1 + nu2 + nu3 must equal nu_prime")
        if self.nu2 <= 0 or self.nu3 <= 0:
            raise ValueError("nu2 and nu3 must be positive")
        if self.fam.speeds:
            m1 = self.fam.speeds[0]
            if m1 * (b1**2 - a1**2) <= 0.5 * (self.nu1 - 1) * (a1**2 + b1**2) ** 2:
                raise ValueError("m1 violates the quadratic tuning constraint")

    def shape(self, j: int) -> tuple[float, float]:
        return self.shape_pairs[j - 1]

    def default_omega(self) -> float:
        """Small slack weight for the mass-augmented monotonicity checks."""
        if not self.fam.speeds:
            return 1e-3 * min((a**2 + b**2) ** 2 for a, b in self.shape_pairs)
        return 1e-3 * min(
            (a**2 + b**2) ** 2 * m
            for (a, b), m in zip(self.shape_pairs, self.fam.speeds)
        )


def _sigma_cap_for_first_shape(a1: float, b1: float, nu1: float, nu2: float, nu3: float) -> float:
    """Largest sigma keeping the two sigma-dependent coefficient bounds nonnegative.

    Only binds when b1^2 - a1^2 < 0; both bounds follow from solving the
    coefficient inequalities for sigma.
    """
    d = b1**2 - a1**2
    if d >= 0:
        return np.inf
    r = a1**2 + b1**2
    cap2 = (2.0 * 3.0**0.25 * (1 - nu1) ** 0.25 * nu2**0.75 * r**1.5 / (3.0 * abs(d))) ** 2
    cap3 = 2.0 * nu3 * r**2 / abs(d)
    return min(cap2, cap3)


def select_parameters(
    cfg: OrderedConfiguration, sigma: float, override: bool = False
) -> LyapunovParams:
    """Choose nu's and cutoff speeds for an ordered configuration.

    nu1 sits at the midpoint of its admissible interval, nu2 = nu3 split
    the gap to nu_prime evenly, the cutoff speeds are interval midpoints,
    and sigma is shrunk when the first shape pair forces a smaller value.
    """
    if not cfg.positive_v2 and not override:
        raise HypothesisViolated(
            "second-smallest velocity is not positive; pass override=True for "
            "exploratory runs outside the uniqueness regime"
        )
    pairs = tuple(cfg.shape_pairs())
    a1, b1 = pairs[0]
    d1 = b1**2 - a1**2
    r1 = a1**2 + b1**2
    nu1_min = max(0.0, -d1 / r1)
    nu1 = 0.5 * (1.0 + nu1_min)
    nu = nu1 + (2.0 / 3.0) * (1.0 - nu1)
    nu_prime = nu1 + (1.0 - nu1) / 3.0
    nu2 = nu3 = 0.5 * (nu_prime - nu1)

    sigma_eff = float(sigma)
    cap = _sigma_cap_for_first_shape(a1, b1, nu1, nu2, nu3)
    if sigma_eff > 0.9 * cap:
        sigma_eff = 0.9 * cap

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

    fam = make_cutoff_family(cfg, speeds, sigma_eff)
    params = LyapunovParams(
        nu1=nu1,
        nu=nu,
        nu_prime=nu_prime,
        nu2=nu2,
        nu3=nu3,
        shape_pairs=pairs,
        fam=fam,
    )
    params.validate()
    return params


def _weakened(trip: LocalizedTriple, shape: tuple[float, float], nu: float) -> float:
    """F_j + 2(b^2-a^2) E_j + nu (a^2+b^2)^2 M_j (localized convention)."""
    a, b = shape
    return trip.Fj + 2.0 * (b**2 - a**2) * trip.Ej + nu * (a**2 + b**2) ** 2 * trip.Mj


def weakened_F(u: Field, j: int, p: LyapunovParams, t: float, nu: float | None = None) -> float:
    """Weakened functional: the H_j combination with mass coefficient nu (p.nu < 1 by default).

    At nu = 1 it is H_j = F_j + 2(b^2-a^2) E_j + (a^2+b^2)^2 M_j itself.
    """
    return _weakened(localized_triple(u, p.fam, j, t), p.shape(j), p.nu if nu is None else nu)


def _second_variation_weights(
    pv: np.ndarray, phi: np.ndarray, a: float, b: float, g: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (c2, c1, c0) of the second variation int c2 w_xx^2 + c1 w_x^2 + c0 w^2.

    From the integrand [1/2 w_xx^2 - 5/2 w_x^2 P^2 + 5/2 w^2 P_x^2
    + 5 w^2 P P_xx + 15/4 w^2 P^4] Phi_j + (b^2-a^2)[w_x^2 - 3 w^2 P^2] Phi_j
    + 1/2 (a^2+b^2)^2 w^2 Phi_j.
    """
    pf = make_field(g, pv)
    px = spectral_derivative(pf, 1).values
    pxx = spectral_derivative(pf, 2).values
    pv2 = pv * pv
    d = b**2 - a**2
    c1 = (d - 2.5 * pv2) * phi
    c0 = (
        2.5 * px**2 + 5.0 * pv * pxx + 3.75 * (pv2 * pv2) - 3.0 * d * pv2
        + 0.5 * (a**2 + b**2) ** 2
    ) * phi
    return 0.5 * phi, c1, c0


def quadratic_form_H(
    w: Field,
    profile: Field,
    j: int,
    p: LyapunovParams,
    t: float,
) -> float:
    """Second-variation quadratic form of the Lyapunov functional at a profile.

    The integrand is written out in _second_variation_weights.
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


def _form_matrix(weights, g: Grid) -> np.ndarray:
    """Symmetric matrix of int c2 w_xx^2 + c1 w_x^2 + c0 w^2 (no quadrature h factor).

    With the derivative circulants D2 = D2^T and D1 = -D1^T (even and odd symbols
    S2, S1), the matrix is D2 C2 D2 - D1 C1 D1.  A product X D applies D^T to each row
    of X, so A = irfft(S2 rfft(D2 C2) + S1 rfft(D1 C1)) row by row: three n x n real
    FFTs instead of two dense products.
    """
    c2, c1, c0 = weights
    A = np.fft.irfft(
        _fourier_symbol(g, 2) * np.fft.rfft(derivative_matrix(g, 2) * c2)
        + _fourier_symbol(g, 1) * np.fft.rfft(derivative_matrix(g, 1) * c1),
        g.n,
    )
    A[np.diag_indices_from(A)] += c0
    return 0.5 * (A + A.T)


@dataclass
class CoercivityResult:
    """Outcome of the discrete coercivity eigencheck."""

    mu: float  # largest certified penalty/coercivity constant (0 if none)
    lambda_min_raw: float  # smallest Rayleigh quotient of the bare form


def _restrict_to_complement(V: np.ndarray, mats, vec: np.ndarray):
    """The symmetric mats and vec in an orthonormal basis of the complement of V's columns.

    The m Householder reflectors H = I - 2 v v^T of V's QR factorization give
    Q = H_1 ... H_m, whose first m columns span V's columns, so the trailing
    (n - m) block of Q^T X Q is X on the complement.  Each H X H is the rank-two
    update X - v w^T - w v^T, w = 2 X v - 2 (v^T X v) v.  mats and vec are overwritten.
    """
    (qr, _), _ = scipy.linalg.qr(V, mode="raw")
    n, m = V.shape
    for k in range(m):
        v = np.zeros(n)  # LAPACK stores H_k's vector as (0, ..., 0, 1, qr[k+1:, k])
        v[k] = 1.0
        v[k + 1 :] = qr[k + 1 :, k]
        v /= np.linalg.norm(v)
        for X in mats:
            Xv = X @ v
            w = 2.0 * Xv - 2.0 * (v @ Xv) * v
            X -= np.outer(v, w)
            X -= np.outer(w, v)
        vec -= 2.0 * (v @ vec) * v
    return [X[m:, m:] for X in mats], vec[m:]


def _restricted_forms(
    obj: WaveObject, p: LyapunovParams, j: int, g: Grid, impose_orthogonality: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ar, Br, pr): the matrices of quadratic_form_H and of int (w_xx^2 + w_x^2 + w^2) Phi
    at t = 0 and the penalty vector P sqrt(Phi), with impose_orthogonality restricted to
    the discrete-L^2 complement of the m <= 2 modulation directions.
    """
    phi = p.fam.weight(j, 0.0, g.x)
    pv = eval_object(obj, 0.0, g.x)
    A = g.h * _form_matrix(_second_variation_weights(pv, phi, *shape_pair(obj), g), g)
    B = g.h * _form_matrix((phi, phi, phi), g)
    pen = pv * np.sqrt(phi)
    if not impose_orthogonality:
        return A, B, pen
    dirs = modulation_directions(obj, (), 0.0, g).T
    (Ar, Br), pr = _restrict_to_complement(dirs, (A, B), pen)
    return Ar, Br, pr


def coercivity_check(
    obj: WaveObject,
    p: LyapunovParams,
    j: int,
    g: Grid,
    impose_orthogonality: bool = True,
    mu_grid: np.ndarray | None = None,
) -> CoercivityResult:
    """Largest mu of the grid with Ar + (h^2/mu) pr pr^T - mu Br >= 0 (_restricted_forms).

    One eigendecomposition Ar Q = Br Q diag(lam), Q^T Br Q = I, decides every mu: by
    congruence the matrix has the inertia of D + s z z^T, D = diag(lam - mu), s = h^2/mu,
    z = Q^T pr, whose eigenvalues interlace those of D, and det(D + s z z^T) =
    det(D) (1 + s z^T D^-1 z) (Golub, SIAM Rev. 15, 1973).  So mu is certified iff
    mu <= lam[0], or lam[0] < mu < lam[1] and 1 + s sum z_i^2 / (lam_i - mu) <= 0.
    """
    if g.n > 4096:
        raise ValueError("dense eigensolve limited to n <= 4096")
    Ar, Br, pr = _restricted_forms(obj, p, j, g, impose_orthogonality)
    try:
        lam, Q = scipy.linalg.eigh(Ar, Br, overwrite_a=True, overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveFailure(str(exc)) from exc
    z2 = (Q.T @ pr) ** 2
    if mu_grid is None:
        mu_grid = np.logspace(-4, 0.5, 46)
    certified = [
        mu
        for mu in mu_grid
        if mu <= lam[0] or (mu < lam[1] and 1.0 + g.h**2 / mu * np.sum(z2 / (lam - mu)) <= 0)
    ]
    return CoercivityResult(mu=max(certified, default=0.0), lambda_min_raw=float(lam[0]))


@dataclass
class MonotonicityReport:
    """Almost-monotonicity audit of one functional along a trajectory."""

    times: np.ndarray
    values: list[float]
    worst_drop: float  # largest decrease in excess of the slack (0 = verified)
    slack_bound: float  # slack at the start of the window (largest allowed)


def monotonicity_report(
    traj: Trajectory,
    j: int,
    p: LyapunovParams,
    varpi: float = 0.0,
    C: float = 0.0,
    budget: float = DROP_BUDGET,
) -> dict[str, MonotonicityReport]:
    """Record decreases of the four audited functionals beyond the decaying slack.

    The functionals are M_j, E_j + omega M_j, F_j + omega M_j and the weakened F,
    all read from one localized triple per snapshot, with omega = p.default_omega().
    The slack allowed between t1 < t2 is C exp(-2 varpi t1) + budget; the report
    never raises on violations.
    """
    omega = p.default_omega()
    rows = []
    for t, row in zip(traj.times, traj.values):
        trip = localized_triple(make_field(traj.grid, row), p.fam, j, t)
        weak = _weakened(trip, p.shape(j), p.nu)
        rows.append((trip.Mj, trip.Ej + omega * trip.Mj, trip.Fj + omega * trip.Mj, weak))
    slack = [C * np.exp(-2.0 * varpi * t) + budget for t in traj.times]
    reports = {}
    for name, column in zip(("Mj", "Ej+omega*Mj", "Fj+omega*Mj", "weakened_F"), zip(*rows)):
        values = [float(v) for v in column]
        # running maximum makes the pairwise scan linear: the worst decrease from
        # any t1 < t2 is (max over t1 <= t2 of value - slack) - value(t2)
        worst = 0.0
        best_so_far = -np.inf
        for v, sl in zip(values, slack):
            best_so_far = max(best_so_far, v - sl)
            worst = max(worst, best_so_far - v)
        reports[name] = MonotonicityReport(
            times=traj.times, values=values, worst_drop=float(worst), slack_bound=float(slack[0])
        )
    return reports


def calibrate_slack(cfg: OrderedConfiguration, p: LyapunovParams, g: Grid) -> tuple[float, float]:
    """Diagnostic (varpi, C) for the monotonicity slack, from the profiles at t = 0.

    varpi is tied to the cutoff transition scale and the slowest profile
    decay; C scales with the total functional size of the profiles, damped
    by the initial separation measured in units of the speed gap.
    """
    tau0 = p.fam.tau0
    min_b = min(b for _, b in p.shape_pairs)
    if not np.isfinite(tau0):
        varpi = 0.25 * min_b
    else:
        varpi = 0.25 * tau0 * min(np.sqrt(p.fam.sigma), min_b)

    scale = 0.0
    for o in cfg.objects:
        u = make_field(g, eval_object(o, 0.0, g.x))
        scale += 2.0 * mass(u) + abs(energy(u)) + abs(second_energy(u))

    centers = sorted(center(o, 0.0) for o in cfg.objects)
    if len(centers) > 1 and np.isfinite(tau0):
        d_min = min(b2 - a2 for a2, b2 in zip(centers, centers[1:]))
        t_sep = d_min / (2.0 * tau0)
    else:
        t_sep = 0.0
    C = scale * np.exp(-2.0 * varpi * t_sep)
    return float(varpi), float(C)


@dataclass
class InterpolationReport:
    holds_quadratic: bool  # X^2 <= A + eps X
    holds_linear: bool  # X <= eps + sqrt(A)
    ratio: float  # X^2 / (A + eps X), <= 1 when the bound holds


def interpolation_inequality_check(u: Field, fam: CutoffFamily, j: int) -> InterpolationReport:
    """Check X^2 <= A + eps X with the |Phi_jx|-weighted Sobolev quantities at t = 0."""
    g = u.grid
    wx = np.abs(fam.weight_x(j, 0.0, g.x))
    u1 = spectral_derivative(u, 1).values
    u2 = spectral_derivative(u, 2).values
    u3 = spectral_derivative(u, 3).values
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
    holds: tuple[bool, bool, bool, bool]

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
    return CoefficientReport(
        values=(float(c1), float(c2), float(c3), float(c4)),
        holds=(c1 >= 0, c2 >= 0, c3 >= 0, c4 > 0),
    )
