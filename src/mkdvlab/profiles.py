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
from .grid import Field, Grid, make_field

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


def soliton_eval(s: Soliton, t: float, x, shift: float = 0.0):
    """kappa * Q_c(x - x0 + shift - c t); shift is the modulation offset."""
    return s.kappa * q_profile(s.c, np.asarray(x) - s.x0 + shift - s.c * t)


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


def breather_eval(b: Breather, t: float, x, shift1: float = 0.0, shift2: float = 0.0):
    """Closed-form value 2*sqrt(2) d/dx arctan((beta/alpha) sin(a y1)/cosh(b y2)).

    Worked out with the quotient rule this is k N / D with k =
    2*sqrt(2)*alpha*beta, N = alpha cos(a y1) cosh(b y2) - beta sin(a y1)
    sinh(b y2) and D = alpha^2 cosh^2(b y2) + beta^2 sin^2(a y1).
    """
    k, N, D, *_ = _breather_quotient(b, t, x, shift1, shift2)
    return k * N / D


def _breather_partials(b: Breather, t: float, x, shift1: float, shift2: float):
    """Value k N / D of the shifted breather, its phase partials and their Hessian.

    Returns (value, d1, d2, d11, d12, d22) from one evaluation of the quotient;
    value has the bits of breather_eval.  D has no mixed phase partial.
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
    N11 = -(a**3) * c * ch + a**2 * be * s * sh
    N12 = -(a**2) * be * s * sh - a * be**2 * c * ch
    N22 = a * be**2 * c * ch - be**3 * s * sh
    D11 = 2.0 * a**2 * be**2 * (c**2 - s**2)
    D22 = 2.0 * a**2 * be**2 * (sh**2 + ch**2)
    Dcu = Dsq * D
    d11 = k * ((N11 * D - N * D11) / Dsq - 2.0 * D1 * g1 / Dcu)
    d12 = k * ((N12 * D + N1 * D2 - N2 * D1) / Dsq - 2.0 * D2 * g1 / Dcu)
    d22 = k * ((N22 * D - N * D22) / Dsq - 2.0 * D2 * g2 / Dcu)
    return k * N / D, k * g1 / Dsq, k * g2 / Dsq, d11, d12, d22


def _offsets(shifts: Sequence[float]) -> tuple[float, float]:
    """First and second translation offsets, 0.0 where shifts stops short."""
    s1 = shifts[0] if len(shifts) else 0.0
    s2 = shifts[1] if len(shifts) > 1 else 0.0
    return s1, s2


def _offset_partials(o: WaveObject, shifts: Sequence[float], t: float, x):
    """One shifted profile with its offset partials, as used by the modulation solver.

    Returns (value, dirs, hess) from a single evaluation: value has the bits of
    eval_object, dirs holds one partial per offset (one for a soliton, two for a
    breather) and hess[a][b] is the partial of dirs[a] in offset b.
    """
    s1, s2 = _offsets(shifts)
    if isinstance(o, Soliton):
        z = np.asarray(x) - o.x0 + s1 - o.c * t  # soliton_eval's argument
        k, c = o.kappa, o.c
        return k * q_profile(c, z), [k * q_prime(c, z)], [[k * q_second(c, z)]]
    value, d1, d2, d11, d12, d22 = _breather_partials(o, t, x, s1, s2)
    return value, [d1, d2], [[d11, d12], [d12, d22]]


def eval_object(o: WaveObject, t: float, x, shifts: Sequence[float] = ()):
    """Evaluate a soliton or breather, with optional translation offsets."""
    s1, s2 = _offsets(shifts)
    if isinstance(o, Soliton):
        return soliton_eval(o, t, x, s1)
    return breather_eval(o, t, x, s1, s2)


def velocity(o: WaveObject) -> float:
    """c for solitons, beta^2 - 3 alpha^2 for breathers."""
    if isinstance(o, Soliton):
        return o.c
    return o.beta**2 - 3.0 * o.alpha**2


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
    velocities: tuple[float, ...]
    positive_v1: bool
    positive_v2: bool

    @property
    def J(self) -> int:
        return len(self.objects)

    def shape_pairs(self) -> list[tuple[float, float]]:
        return [shape_pair(o) for o in self.objects]


def order_and_validate(objects: Sequence[WaveObject]) -> OrderedConfiguration:
    """Sort by velocity, reject duplicates, record the sign hypotheses.

    For a single object the second-velocity flag falls back to the sign of
    the only velocity present.
    """
    if not objects:
        raise ValueError("configuration must contain at least one object")
    vs = [velocity(o) for o in objects]
    order = np.argsort(vs)
    sorted_v = [vs[i] for i in order]
    for a, b in zip(sorted_v, sorted_v[1:]):
        if a == b:
            raise DuplicateVelocity(f"two objects share velocity {a}")
    sorted_obj = tuple(objects[i] for i in order)
    v1 = sorted_v[0]
    v2 = sorted_v[1] if len(sorted_v) > 1 else sorted_v[0]
    return OrderedConfiguration(
        objects=sorted_obj,
        velocities=tuple(sorted_v),
        positive_v1=v1 > 0,
        positive_v2=v2 > 0,
    )


def check_tails(cfg: OrderedConfiguration, t: float, g: Grid):
    """Raise TailsTooLarge if any envelope exceeds TAIL_BUDGET at the boundary."""
    for o in cfg.objects:
        tail = max(decay_envelope(o, t, -g.half_length), decay_envelope(o, t, g.half_length))
        if tail > TAIL_BUDGET:
            raise TailsTooLarge(
                f"{type(o).__name__} envelope {tail:.3e} at the boundary exceeds "
                f"{TAIL_BUDGET:.1e} (t={t:.3g}, L={g.half_length:.3g})"
            )


def profile_sum(
    cfg: OrderedConfiguration,
    t: float,
    g: Grid,
    shifts: Sequence[Sequence[float]] | None = None,
) -> Field:
    """Pointwise sum of all object evaluations at time t on the grid."""
    check_tails(cfg, t, g)
    x = g.x
    total = np.zeros_like(x)
    for i, o in enumerate(cfg.objects):
        sh = shifts[i] if shifts is not None else ()
        total += eval_object(o, t, x, sh)
    return make_field(g, total)
