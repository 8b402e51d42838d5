"""Translation modulation: offsets that make the residual orthogonal to the
profile translation directions, and tracking of those offsets along runs.

The orthogonality system is small (one unknown per soliton, two per
breather) and smooth, so a Newton iteration with the analytic Jacobian
reaches 1e-12 residuals in a handful of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularJacobian
from .functionals import CutoffFamily
from .grid import Grid, _h2_sum, derivative_pair, integrate
from .profiles import OrderedConfiguration, _offset_partials, n_offsets, shape_pair

MAX_NEWTON_ITERS = 50


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
    profiles: list[np.ndarray]  # the shifted profiles, object order; w is u minus their sum


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
        parts = [_offset_partials(o, sh, t, x) for o, sh in zip(cfg.objects, offsets)]
        w = u - sum(value for value, _, _ in parts)
        dirs = [d for _, ds, _ in parts for d in ds]
        G = np.array([h * np.sum(d * w) for d in dirs])
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
                profiles=[value for value, _, _ in parts],
            )
        # J_ij = <d dir_i / d y_j, w> - <dir_i, dir_j> ; the first term is
        # nonzero only in the diagonal block of the object that owns i and j,
        # and the Gram term is symmetric, so each pair is summed once.
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
        if not np.all(np.isfinite(y)):
            raise NoConvergence("Newton iterates diverged")

    raise NoConvergence(
        f"no convergence after {MAX_NEWTON_ITERS} iterations at t={t:.6g} "
        f"(last residual {np.max(np.abs(G)):.3e})"
    )


@dataclass
class ModulationTrack:
    """Fits along a trajectory: row i of each array belongs to the trajectory's times[i]."""

    offsets: np.ndarray  # (T, m) flat offsets, slowest object first
    ortho_residuals: np.ndarray  # (T, m)
    w_h2: np.ndarray  # (T,) H^2 norms of the residuals


def track_modulation(traj, cfg: OrderedConfiguration) -> ModulationTrack:
    """Fit offsets at every snapshot, each fit warm-started from the previous one."""
    T, m = len(traj.times), total_offsets(cfg)
    track = ModulationTrack(np.empty((T, m)), np.empty((T, m)), np.empty(T))
    guess = None
    for i, (t, row) in enumerate(zip(traj.times, traj.values)):
        try:
            st = fit_translations(traj.grid, row, cfg, t, guess=guess)
        except (NoConvergence, SingularJacobian) as exc:
            raise type(exc)(f"snapshot t={t:.6g}: {exc}") from exc
        guess = st.offsets
        track.offsets[i] = st.offsets
        track.ortho_residuals[i] = st.ortho_residuals
        track.w_h2[i] = st.w_h2
    return track


def scalar_product_series(
    traj, cfg: OrderedConfiguration, fam: CutoffFamily, offsets: np.ndarray
) -> dict:
    """Residual diagnostics along traj, rebuilt from the tracked offsets, in one pass.

    offsets holds one fitted root per snapshot (ModulationTrack.offsets), so
    the fit that starts from it takes no Newton step and returns the tracked
    fit's w, its derivative pair and the shifted profiles, bit for bit.  For
    each j = 1..J (row j - 1 of "scalar" and "quadratic") the series
    |int Ptilde_j w| and its quadratic reference int (w^2 + w_x^2) Phi_j,
    which tests that the profile/residual scalar product is quadratic.
    "windowed" is the H^2-type distance of w weighted by 1 - Phi_{J-1}, the
    fastest co-moving window, so fam needs a cutoff (J >= 2).
    """
    g = traj.grid
    js = range(1, cfg.J + 1)
    windowed, lhs, quad = [], [[] for _ in js], [[] for _ in js]
    for t, row, y in zip(traj.times, traj.values, offsets, strict=True):
        st = fit_translations(g, row, cfg, t, guess=y)
        w, (wx, wxx) = st.w, st.w_pair
        h1 = w**2 + wx**2
        phis = [fam.weight(j, t, g.x) for j in js]
        windowed.append(float(np.sqrt(integrate(g, (h1 + wxx**2) * (1.0 - phis[-2])))))
        for j, pj, phi in zip(js, st.profiles, phis):
            lhs[j - 1].append(abs(integrate(g, pj * w)))
            quad[j - 1].append(integrate(g, h1 * phi))
    return {"windowed": windowed, "scalar": np.array(lhs), "quadratic": np.array(quad)}
