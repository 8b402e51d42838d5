"""Exact soliton and breather evaluation, ordering, sums and decay envelopes.

All profile evaluations are closed-form (including the spatial derivative of
the breather and the translation partials used by the modulation solver), so
that residual and functional tests can reach near machine accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DuplicateVelocity, TailsTooLarge
from .grid import Grid

# largest decay envelope allowed at the domain boundary
TAIL_BUDGET = 1e-10


@dataclass(frozen=True)
class Soliton:
    """sech-profile traveling wave of speed c > 0, sign kappa, start x0."""

    c: float
    kappa: int = 1
    x0: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.c, self.x0]).all():
            raise ValueError(f"soliton c and x0 must be finite, got c={self.c}, x0={self.x0}")
        if self.c <= 0:
            raise ValueError(f"soliton speed c must be positive, got {self.c}")
        if self.kappa not in (-1, 1):
            raise ValueError(f"kappa must be -1 or +1, got {self.kappa}")


@dataclass(frozen=True)
class Breather:
    """Localized oscillating solution with shape (alpha, beta), phases (x1, x2)."""

    alpha: float
    beta: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.beta, self.x1, self.x2]).all():
            raise ValueError(f"breather fields must be finite, got {self}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("breather shape parameters must be positive")

    @property
    def delta(self) -> float:
        return self.alpha**2 - 3.0 * self.beta**2

    @property
    def gamma(self) -> float:
        return 3.0 * self.alpha**2 - self.beta**2


WaveObject = Union[Soliton, Breather]


def q_profile(c: float, z):
    """Soliton shape Q_c(z) = sqrt(2c) / cosh(sqrt(c) z)."""
    return np.sqrt(2.0 * c) / np.cosh(np.sqrt(c) * z)


def q_prime(c: float, z):
    rc = np.sqrt(c)
    sech = 1.0 / np.cosh(rc * z)
    return -np.sqrt(2.0 * c) * rc * sech * np.tanh(rc * z)


def q_second(c: float, z):
    rc = np.sqrt(c)
    sech = 1.0 / np.cosh(rc * z)
    return np.sqrt(2.0 * c) * c * sech * (1.0 - 2.0 * sech**2)


def soliton_eval(s: Soliton, t: float, x):
    """kappa * Q_c(x - x0 - c t), the soliton at time t; the modulation fit's
    translated profiles come from _offset_partials."""
    return s.kappa * q_profile(s.c, np.asarray(x) - s.x0 - s.c * t)


_HYP_CLAMP = 100.0  # |beta*y2| cap; beyond it the profile is ~1e-44, and
# cosh powers up to the 6th must stay below double-precision overflow


def _breather_quotient(b: Breather, t: float, x, shift1: float, shift2: float):
    """k, N, D of the breather quotient k N / D and its frame samples s, c, sh, ch."""
    x = np.asarray(x, dtype=float)
    y1 = x + b.delta * t + b.x1 + shift1
    y2 = x + b.gamma * t + b.x2 + shift2
    s = np.sin(b.alpha * y1)
    c = np.cos(b.alpha * y1)
    arg = np.clip(b.beta * y2, -_HYP_CLAMP, _HYP_CLAMP)
    sh = np.sinh(arg)
    ch = np.cosh(arg)
    a, be = b.alpha, b.beta
    k = 2.0 * np.sqrt(2.0) * a * be
    N = a * c * ch - be * s * sh
    D = a**2 * ch**2 + be**2 * s**2
    return k, N, D, s, c, sh, ch


def breather_eval(b: Breather, t: float, x):
    """Closed-form value 2*sqrt(2) d/dx arctan((beta/alpha) sin(a y1)/cosh(b y2)).

    Worked out with the quotient rule this is k N / D with k =
    2*sqrt(2)*alpha*beta, N = alpha cos(a y1) cosh(b y2) - beta sin(a y1)
    sinh(b y2) and D = alpha^2 cosh^2(b y2) + beta^2 sin^2(a y1).
    """
    k, N, D, *_ = _breather_quotient(b, t, x, 0.0, 0.0)
    return k * N / D


def _breather_partials(b: Breather, t: float, x, shift1: float, shift2: float):
    """Value k N / D of the shifted breather, its phase partials and their Hessian on demand.

    Returns (value, d1, d2, second) from one evaluation of the quotient; at zero
    offsets value has the bits of breather_eval, and second() returns the Hessian
    [[d11, d12], [d12, d22]] from the same evaluation.  D has no mixed phase
    partial.
    """
    k, N, D, s, c, sh, ch = _breather_quotient(b, t, x, shift1, shift2)
    a, be = b.alpha, b.beta
    N1 = -(a**2) * s * ch - a * be * c * sh
    N2 = a * be * c * sh - be**2 * s * ch
    D1 = 2.0 * a * be**2 * s * c
    D2 = 2.0 * a**2 * be * ch * sh
    g1 = N1 * D - N * D1
    g2 = N2 * D - N * D2
    Dsq = D * D

    def second():
        N11 = -(a**3) * c * ch + a**2 * be * s * sh
        N12 = -(a**2) * be * s * sh - a * be**2 * c * ch
        N22 = a * be**2 * c * ch - be**3 * s * sh
        D11 = 2.0 * a**2 * be**2 * (c**2 - s**2)
        D22 = 2.0 * a**2 * be**2 * (sh**2 + ch**2)
        Dcu = Dsq * D
        d11 = k * ((N11 * D - N * D11) / Dsq - 2.0 * D1 * g1 / Dcu)
        d12 = k * ((N12 * D + N1 * D2 - N2 * D1) / Dsq - 2.0 * D2 * g1 / Dcu)
        d22 = k * ((N22 * D - N * D22) / Dsq - 2.0 * D2 * g2 / Dcu)
        return [[d11, d12], [d12, d22]]

    return k * N / D, k * g1 / Dsq, k * g2 / Dsq, second


def _offset_partials(o: WaveObject, shifts: Sequence[float], t: float, x):
    """One shifted profile with its offset partials, as used by the modulation solver.

    Returns (value, dirs, hess) from a single evaluation: at zero offsets value
    has the bits of eval_object, dirs holds one partial per offset (one for a
    soliton, two for a breather), and hess() evaluates the second partials from
    the same evaluation only when called: hess()[a][b] is the partial of dirs[a]
    in offset b.  Offsets missing from the end of shifts are 0.0.
    """
    s1 = shifts[0] if len(shifts) else 0.0
    s2 = shifts[1] if len(shifts) > 1 else 0.0
    if isinstance(o, Soliton):
        z = np.asarray(x) - o.x0 + s1 - o.c * t  # soliton_eval's argument, shifted by s1
        k, c = o.kappa, o.c
        return k * q_profile(c, z), [k * q_prime(c, z)], lambda: [[k * q_second(c, z)]]
    value, d1, d2, hess = _breather_partials(o, t, x, s1, s2)
    return value, [d1, d2], hess


def eval_object(o: WaveObject, t: float, x):
    """Evaluate a soliton or breather at time t; translated profiles come
    from _offset_partials."""
    if isinstance(o, Soliton):
        return soliton_eval(o, t, x)
    return breather_eval(o, t, x)


def velocity(o: WaveObject) -> float:
    """c for solitons, -gamma for breathers (0.0 - gamma: +0.0 when standing still)."""
    if isinstance(o, Soliton):
        return o.c
    return 0.0 - o.gamma


def shape_pair(o: WaveObject) -> tuple[float, float]:
    """(0, sqrt(c)) for solitons, (alpha, beta) for breathers."""
    if isinstance(o, Soliton):
        return (0.0, np.sqrt(o.c))
    return (o.alpha, o.beta)


def n_offsets(o: WaveObject) -> int:
    """Number of translation offsets the object carries (1 or 2)."""
    return 1 if isinstance(o, Soliton) else 2


def center(o: WaveObject, t: float) -> float:
    """Instantaneous center of the profile."""
    if isinstance(o, Soliton):
        return o.x0 + o.c * t
    return -o.x2 - o.gamma * t


def decay_envelope(o: WaveObject, t: float, x):
    """Certified exponential envelope C * exp(-b |x - center|).

    Soliton: |Q_c| = sqrt(2c) sech(sqrt(c) z) <= 2 sqrt(2c) e^{-sqrt(c)|z|}.
    Breather: bounding the quotient by alpha^2 cosh^2 in the denominator
    gives |B| <= 4 sqrt(2) (beta/alpha)(alpha + beta) e^{-beta|y2|}.
    """
    if isinstance(o, Soliton):
        b = np.sqrt(o.c)
        const = 2.0 * np.sqrt(2.0) * b
    else:
        b = o.beta
        const = 4.0 * np.sqrt(2.0) * (o.beta / o.alpha) * (o.alpha + o.beta)
    return const * np.exp(-b * np.abs(np.asarray(x, dtype=float) - center(o, t)))


@dataclass(frozen=True)
class OrderedConfiguration:
    """Wave objects sorted by strictly increasing velocity."""

    objects: tuple[WaveObject, ...]

    @property
    def J(self) -> int:
        return len(self.objects)

    @property
    def velocities(self) -> tuple[float, ...]:
        return tuple(velocity(o) for o in self.objects)

    @property
    def positive_v1(self) -> bool:
        return self.velocities[0] > 0

    @property
    def positive_v2(self) -> bool:
        """v2 > 0: the paper's hypothesis of at most one velocity <= 0, under which a first
        cutoff speed fits in (max(0, v1), v2).  A lone object has no v2, so it is false."""
        v = self.velocities
        return len(v) > 1 and v[1] > 0

    def shape_pairs(self) -> list[tuple[float, float]]:
        return [shape_pair(o) for o in self.objects]


def order_and_validate(objects: Sequence[WaveObject]) -> OrderedConfiguration:
    """Sort by velocity and reject velocities with no float strictly between them.

    The cutoff between two neighbours moves at their midpoint, so neighbours
    that are equal or adjacent floats (the midpoint rounds to one of them) are
    duplicates.
    """
    if not objects:
        raise ValueError("configuration must contain at least one object")
    cfg = OrderedConfiguration(tuple(sorted(objects, key=velocity)))
    v = cfg.velocities
    for a, b in zip(v, v[1:]):
        if not a < 0.5 * (a + b) < b:
            raise DuplicateVelocity(
                f"velocities {float(a)} and {float(b)} have no float strictly between them"
            )
    return cfg


def check_tails(cfg: OrderedConfiguration, t: float, g: Grid):
    """Raise TailsTooLarge if any envelope exceeds TAIL_BUDGET at the boundary."""
    for o in cfg.objects:
        tail = max(decay_envelope(o, t, -g.half_length), decay_envelope(o, t, g.half_length))
        if tail > TAIL_BUDGET:
            raise TailsTooLarge(
                f"{type(o).__name__} envelope {tail:.3e} at the boundary exceeds "
                f"{TAIL_BUDGET:.1e} (t={t:.3g}, L={g.half_length:.3g})"
            )


def profile_sum(cfg: OrderedConfiguration, t: float, g: Grid) -> np.ndarray:
    """Pointwise sum of all object evaluations at time t on the grid."""
    check_tails(cfg, t, g)
    x = g.x
    total = np.zeros_like(x)
    for o in cfg.objects:
        total += eval_object(o, t, x)
    return total
