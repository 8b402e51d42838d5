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
from .grid import Field, Grid, h2_norm_sq, integrate, make_field, spectral_derivative
from .profiles import (
    OrderedConfiguration,
    _offset_partials,
    eval_object,
    n_offsets,
    shape_pair,
)

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


def modulation_directions(o, shifts, t: float, g: Grid) -> np.ndarray:
    """Translation-parameter derivatives of one shifted profile, one row each.

    One row for a soliton (the spatial derivative of the shifted profile),
    two for a breather (partials in each phase parameter), all closed-form.
    """
    return np.array(_offset_partials(o, shifts, t, g.x)[1])


@dataclass
class ModulationState:
    """Converged fit of the translation offsets at one time."""

    offsets: list[tuple[float, ...]]
    w: Field
    w_h2: float  # H^2 norm of w, the basin check's measure
    ortho_residuals: np.ndarray
    iterations: int

    def flat_offsets(self) -> np.ndarray:
        return np.concatenate([np.asarray(s) for s in self.offsets])


def fit_translations(
    u: Field,
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
    g = u.grid
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
        w = u.values - sum(value for value, _, _ in parts)
        dirs = [d for _, ds, _ in parts for d in ds]
        G = np.array([h * np.sum(d * w) for d in dirs])
        if np.max(np.abs(G)) < 1e-12:
            wf = make_field(g, w)
            w_norm = float(np.sqrt(h2_norm_sq(wf)))
            if w_norm > radius:
                raise NoConvergence(
                    f"orthogonality root found but residual H2 norm "
                    f"{w_norm:.3e} exceeds the basin radius {radius:.3e}"
                )
            return ModulationState(
                offsets=offsets,
                w=wf,
                w_h2=w_norm,
                ortho_residuals=G,
                iterations=it,
            )
        # J_ij = <d dir_i / d y_j, w> - <dir_i, dir_j> ; the first term is
        # nonzero only in the diagonal block of the object that owns i and j.
        J = np.array([[-h * np.sum(di * dj) for dj in dirs] for di in dirs])
        i = 0
        for _, ds, hess in parts:
            k = i + len(ds)
            J[i:k, i:k] += [[h * np.sum(sec * w) for sec in row] for row in hess]
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
    """Fits along a trajectory: row i of each array belongs to times[i]."""

    times: np.ndarray
    offsets: np.ndarray  # (T, m) flat offsets, slowest object first
    ortho_residuals: np.ndarray  # (T, m)
    w: np.ndarray  # (T, n) residuals u - sum of shifted profiles
    w_h2: np.ndarray  # (T,) H^2 norms of the residuals
    grid: Grid


def track_modulation(traj, cfg: OrderedConfiguration) -> ModulationTrack:
    """Fit offsets at every snapshot, warm-starting from the previous one."""
    T, m = len(traj.times), total_offsets(cfg)
    track = ModulationTrack(
        times=traj.times,
        offsets=np.empty((T, m)),
        ortho_residuals=np.empty((T, m)),
        w=np.empty_like(traj.values),
        w_h2=np.empty(T),
        grid=traj.grid,
    )
    guess = None
    for i, (t, row) in enumerate(zip(traj.times, traj.values)):
        u = make_field(traj.grid, row)
        try:
            st = fit_translations(u, cfg, t, guess=guess)
        except NoConvergence as exc:
            raise NoConvergence(f"snapshot t={t:.6g}: {exc}") from exc
        guess = track.offsets[i] = st.flat_offsets()
        track.ortho_residuals[i] = st.ortho_residuals
        track.w[i] = st.w.values
        track.w_h2[i] = st.w_h2
    return track


def scalar_product_series(
    track: ModulationTrack,
    cfg: OrderedConfiguration,
    fam: CutoffFamily,
    j: int,
) -> dict:
    """Diagnostic for the profile/residual scalar product being quadratic.

    Returns the series |int Ptilde_j w|, the quadratic reference
    int (w^2 + w_x^2) Phi_j, and their pointwise ratio.
    """
    g = track.grid
    lhs, quad = [], []
    for t, y, w in zip(track.times, track.offsets, track.w):
        pj = eval_object(cfg.objects[j - 1], t, g.x, split_offsets(cfg, y)[j - 1])
        phi = fam.weight(j, t, g.x)
        wx = spectral_derivative(make_field(g, w), 1).values
        lhs.append(abs(integrate(g, pj * w)))
        quad.append(integrate(g, (w**2 + wx**2) * phi))
    return {"times": track.times, "scalar": np.array(lhs), "quadratic": np.array(quad)}
