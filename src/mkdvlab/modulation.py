"""Translation modulation: offsets that make the residual orthogonal to the
profile translation directions, and tracking of those offsets along runs.

The orthogonality system is small (one unknown per soliton, two per
breather) and smooth, so a Newton iteration with the analytic Jacobian
reaches 1e-12 residuals in a handful of steps.  Each evaluation runs only on
its object's window, the nodes where the object's decay envelope is at least
WINDOW_FLOOR of its peak; outside it the profile, its offset partials and
their Hessian count as exact zeros.  One warm-started pass fits every
snapshot of a run, and with a cutoff family it also measures, from each
converged fit, the residual series that rate-fit reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularJacobian
from .functionals import CutoffFamily
from .grid import Grid, _h2_sum, derivative_pair, integrate
from .profiles import (
    OrderedConfiguration,
    WaveObject,
    _offset_partials,
    center,
    n_offsets,
    shape_pair,
)

MAX_NEWTON_ITERS = 50
# an object is evaluated where its decay envelope is at least this share of its
# peak; beyond, the profile is smaller than the rounding of its height
WINDOW_FLOOR = 1e-17


def split_offsets(cfg: OrderedConfiguration, flat: np.ndarray) -> list[tuple[float, ...]]:
    """Split a flat offset vector into per-object tuples (1 or 2 entries)."""
    out = []
    i = 0
    for o in cfg.objects:
        k = n_offsets(o)
        out.append(tuple(flat[i : i + k]))
        i += k
    if i != len(flat):
        raise ValueError(f"offset vector has {len(flat)} entries, expected {i}")
    return out


def total_offsets(cfg: OrderedConfiguration) -> int:
    return sum(n_offsets(o) for o in cfg.objects)


@dataclass
class ModulationState:
    """Converged fit of the translation offsets at one time."""

    offsets: np.ndarray  # flat, slowest object first; split_offsets gives per-object tuples
    w: np.ndarray
    w_pair: tuple[np.ndarray, np.ndarray]  # (w_x, w_xx)
    w_h2: float  # H^2 norm of w, the basin check's measure
    ortho_residuals: np.ndarray
    iterations: int
    windows: list[slice]  # each object's window at the root, object order
    profiles: list[np.ndarray]  # each shifted profile on its window; w is u minus their sum


def _window(g: Grid, o: WaveObject, shifts: tuple[float, ...], t: float) -> slice:
    """The nodes where o moved by its offsets has decay_envelope >= WINDOW_FLOOR of its peak.

    The envelope is C exp(-b |x - centre|), so these are the nodes with
    |x - centre| <= ln(1 / WINDOW_FLOOR) / b, clipped to the box.  The last
    offset moves the centre: a soliton's only one, a breather's y2 phase.
    """
    _, b = shape_pair(o)
    mid = center(o, t) - shifts[-1]
    r = -np.log(WINDOW_FLOOR) / b
    lo = np.searchsorted(g.x, mid - r, side="left")
    hi = np.searchsorted(g.x, mid + r, side="right")
    return slice(int(lo), int(hi))


def _overlap_sum(fa: np.ndarray, sa: slice, fb: np.ndarray, sb: slice) -> float:
    """sum(fa * fb) over the nodes of both windows; fa lives on window sa, fb on sb."""
    lo, hi = max(sa.start, sb.start), min(sa.stop, sb.stop)
    if hi <= lo:
        return 0.0
    return np.sum(fa[lo - sa.start : hi - sa.start] * fb[lo - sb.start : hi - sb.start])


def fit_translations(
    g: Grid,
    u: np.ndarray,
    cfg: OrderedConfiguration,
    t: float,
    guess: np.ndarray | None = None,
) -> ModulationState:
    """Newton-solve the orthogonality system for the translation offsets.

    The unknowns are ordered per object (slowest first), one entry per
    soliton and two per breather.  Newton stops once every orthogonality
    residual is below 1e-12.  Raises NoConvergence when u is too far from
    the shifted-profile family: the orthogonality system can have roots for
    arbitrary data (e.g. u = 0), so a converged root is only accepted when
    the residual stays inside the basin radius 0.5 * min_j b_j.

    Each object, its offset partials and their Hessian are evaluated on the
    object's window at the current offsets (`_window`) and are zero outside
    it, so every scalar product is a sum over one window, or over the overlap
    of two.  The sums are numpy reductions, whose bits do not depend on the
    BLAS thread count.
    """
    x = g.x
    m = total_offsets(cfg)
    radius = 0.5 * min(b for _, b in map(shape_pair, cfg.objects))
    y = np.zeros(m) if guess is None else np.array(guess, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"guess must have {m} entries")
    h = g.h

    for it in range(MAX_NEWTON_ITERS):
        offsets = split_offsets(cfg, y)
        windows = [_window(g, o, sh, t) for o, sh in zip(cfg.objects, offsets)]
        parts = [
            _offset_partials(o, sh, t, x[sl]) for o, sh, sl in zip(cfg.objects, offsets, windows)
        ]
        total = np.zeros(g.n)
        for sl, (value, _, _) in zip(windows, parts):
            total[sl] += value
        w = u - total
        # each direction with its object's window and the residual there
        dirs = [(d, sl, w[sl]) for sl, (_, ds, _) in zip(windows, parts) for d in ds]
        G = np.array([h * np.sum(d * wk) for d, _, wk in dirs])
        if np.max(np.abs(G)) < 1e-12:
            pair = derivative_pair(g, w)
            w_norm = float(np.sqrt(_h2_sum(g, w, *pair)))
            if w_norm > radius:
                raise NoConvergence(
                    f"orthogonality root found but residual H2 norm "
                    f"{w_norm:.3e} exceeds the basin radius {radius:.3e}"
                )
            return ModulationState(
                offsets=y,
                w=w,
                w_pair=pair,
                w_h2=w_norm,
                ortho_residuals=G,
                iterations=it,
                windows=windows,
                profiles=[value for value, _, _ in parts],
            )
        # J_ij = <d dir_i / d y_j, w> - <dir_i, dir_j> ; the first term is
        # nonzero only in the diagonal block of the object that owns i and j,
        # and the Gram term is symmetric, so each pair is summed once, on the
        # overlap of the two windows.
        J = np.empty((m, m))
        for a, (da, sa, _) in enumerate(dirs):
            for b in range(a, m):
                db, sb, _ = dirs[b]
                J[a, b] = J[b, a] = -h * _overlap_sum(da, sa, db, sb)
        i = 0
        for sl, (_, ds, hess) in zip(windows, parts):
            k = i + len(ds)
            wk = w[sl]
            J[i:k, i:k] += [[h * np.sum(sec * wk) for sec in row] for row in hess()]
            i = k
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularJacobian(f"modulation Jacobian condition number {cond:.3e}")
        y = y - np.linalg.solve(J, G)
        if not np.all(np.isfinite(y)):
            raise NoConvergence("Newton iterates diverged")

    raise NoConvergence(
        f"no convergence after {MAX_NEWTON_ITERS} iterations at t={t:.6g} "
        f"(last residual {np.max(np.abs(G)):.3e})"
    )


@dataclass
class ModulationTrack:
    """Fits along a trajectory: row i of each array belongs to the trajectory's times[i].

    The series windowed, scalar and quadratic (column i for times[i]) are measured
    only with a cutoff family, and are None without one; see track_modulation.
    """

    offsets: np.ndarray  # (T, m) flat offsets, slowest object first
    ortho_residuals: np.ndarray  # (T, m)
    w_h2: np.ndarray  # (T,) H^2 norms of the residuals
    windowed: np.ndarray | None  # (T,)
    scalar: np.ndarray | None  # (J, T)
    quadratic: np.ndarray | None  # (J, T)


def track_modulation(traj, cfg: OrderedConfiguration, fam: CutoffFamily | None) -> ModulationTrack:
    """Fit offsets at every snapshot, each fit warm-started from the previous one.

    With a cutoff family fam (J >= 2), each converged fit's w, its derivative
    pair and its windowed profiles also give rate-fit's residual diagnostics.
    For each j = 1..J (row j - 1 of "scalar" and "quadratic") the series
    |int Ptilde_j w| and its quadratic reference int (w^2 + w_x^2) Phi_j,
    which tests that the profile/residual scalar product is quadratic.
    "windowed" is the H^2-type distance of w weighted by 1 - Phi_{J-1}, the
    fastest co-moving window.  fam = None measures none of them.
    """
    g = traj.grid
    T, m, J = len(traj.times), total_offsets(cfg), cfg.J
    series = (np.empty(T), np.empty((J, T)), np.empty((J, T))) if fam is not None else (None,) * 3
    track = ModulationTrack(np.empty((T, m)), np.empty((T, m)), np.empty(T), *series)
    guess = None
    for i, (t, row) in enumerate(zip(traj.times, traj.values)):
        try:
            st = fit_translations(g, row, cfg, t, guess=guess)
        except (NoConvergence, SingularJacobian) as exc:
            raise type(exc)(f"snapshot t={t:.6g}: {exc}") from exc
        guess = st.offsets
        track.offsets[i] = st.offsets
        track.ortho_residuals[i] = st.ortho_residuals
        track.w_h2[i] = st.w_h2
        if fam is None:
            continue
        w, (wx, wxx) = st.w, st.w_pair
        h1 = w**2 + wx**2
        phis = fam.weights(t, g.x)
        track.windowed[i] = np.sqrt(integrate(g, (h1 + wxx**2) * (1.0 - phis[-2])))
        for j, (sl, pj, phi) in enumerate(zip(st.windows, st.profiles, phis)):
            track.scalar[j, i] = abs(integrate(g, pj * w[sl]))
            track.quadratic[j, i] = integrate(g, h1 * phi)
    return track
