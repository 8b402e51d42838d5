"""The weighted (M, E, F) integrals and the arctan-exp cutoff family.

`weighted_integrals` gives every (M, E, F) integral of a snapshot, one row per
weight: the cutoff Phi_j gives (M_j, E_j, F_j), and the weight 1 the whole line.

Two mass conventions coexist on purpose: the conserved mass is (1/2) int u^2
while the localized M_j drops the 1/2, so the whole-line row is (2M, E, F).
Linear combinations (Lyapunov and weakened functionals) use the localized
convention throughout; only the conservation audit halves the mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, derivative_pair, integrate
from .profiles import OrderedConfiguration


# Products, not v**4 and v**6: numpy sends every array power other than a
# square to libm pow, which on signed data costs about 50 times the products.
def _energy_density(v, ux):
    v2 = v * v
    return 0.5 * ux**2 - 0.25 * (v2 * v2)


def _second_energy_density(v, ux, uxx):
    v2 = v * v
    return 0.5 * uxx**2 - 2.5 * v2 * ux**2 + 0.25 * (v2 * v2 * v2)


def weighted_integrals(g: Grid, u: np.ndarray, weights) -> np.ndarray:
    """(int u^2 w, int e w, int f w) for each weight w (samples, or 1.0 for the whole
    line) as a (len(weights), 3) array, from one derivative pair; the densities are
    e = 1/2 u_x^2 - 1/4 u^4 and f = 1/2 u_xx^2 - 5/2 u^2 u_x^2 + 1/4 u^6."""
    ux, uxx = derivative_pair(g, u)
    m, e, f = u**2, _energy_density(u, ux), _second_energy_density(u, ux, uxx)
    out = np.empty((len(weights), 3))
    for row, w in zip(out, weights):
        row[:] = integrate(g, m * w), integrate(g, e * w), integrate(g, f * w)
    return out


# psi's exponent cap: exp overflows past 709.78, and arctan(exp(700)) == arctan(inf)
_EXP_CLAMP = 700.0


def psi(sigma: float, x):
    """Cutoff shape (2/pi) arctan(exp(-sqrt(sigma) x / 2)); 1 at -inf, 0 at +inf."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    arg = np.minimum(-0.5 * np.sqrt(sigma) * np.asarray(x, dtype=float), _EXP_CLAMP)
    return (2.0 / np.pi) * np.arctan(np.exp(arg))


@dataclass(frozen=True)
class CutoffFamily:
    """Cutoff shape parameter, the J-1 weight speeds, and their separation."""

    sigma: float
    speeds: tuple[float, ...]
    tau0: float

    @property
    def J(self) -> int:
        return len(self.speeds) + 1

    def weight(self, j: int, t: float, x) -> np.ndarray:
        """Phi_j(t, x); j is 1-based, Phi_J is identically 1."""
        self._check_index(j)
        x = np.asarray(x, dtype=float)
        if j == self.J:
            return np.ones_like(x)
        return psi(self.sigma, x - self.speeds[j - 1] * t)

    def _check_index(self, j: int):
        if not 1 <= j <= self.J:
            raise IndexError(f"j must be in 1..{self.J}, got {j}")


def make_cutoff_family(
    cfg: OrderedConfiguration, speeds, sigma: float
) -> CutoffFamily:
    """Validate speeds against the ordered velocities and compute tau0."""
    speeds = tuple(float(m) for m in speeds)
    v = cfg.velocities
    if len(speeds) != cfg.J - 1:
        raise ValueError(f"expected {cfg.J - 1} speeds, got {len(speeds)}")
    for j, m in enumerate(speeds, start=1):
        if not (v[j - 1] < m < v[j]):
            raise ValueError(
                f"speed m_{j}={m} must lie strictly between v_{j}={v[j - 1]} "
                f"and v_{j + 1}={v[j]}"
            )
        if m <= 0:
            raise ValueError(f"cutoff speeds must be positive, got m_{j}={m}")
    if speeds:
        tau0 = min(abs(vv - m) for vv in v for m in speeds)
    else:
        tau0 = np.inf
    return CutoffFamily(sigma=float(sigma), speeds=speeds, tau0=tau0)

