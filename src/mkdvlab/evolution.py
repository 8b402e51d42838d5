"""Time integration of mKdV, u_t + (u_xx + u^3)_x = 0.

The third-derivative term is diagonal in Fourier space and propagated
exactly; the nonlinear flux -(u^3)_x is advanced with 4th-order exponential
Runge-Kutta stages (Krogstad coefficients, phi-functions evaluated by a
unit-circle contour mean).  The cubic product is dealiased on 2n points, which
is exact for cubic nonlinearities; those points are the grid and the grid
shifted by half a cell, so the cube takes a batch of two length-n transforms
(the shifted-grid view of dealiasing, Patterson & Orszag 1971).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUp
from .grid import Grid, derivative_pair
from .profiles import WaveObject, eval_object

BLOWUP_LIMIT = 1e6


@dataclass(frozen=True)
class EvolutionControls:
    dt: float
    t_end: float
    save_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and np.isfinite(self.t_end)):
            raise ValueError("dt and t_end must be finite")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if abs(math.remainder(self.t_end, self.dt)) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end} must be a whole multiple of dt={self.dt}")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")


@dataclass
class Trajectory:
    """Snapshots of an evolution run: row i of values (T, n) is the state at times[i]."""

    times: np.ndarray
    values: np.ndarray
    grid: Grid


def stability_bound(g: Grid, u: np.ndarray) -> float:
    """Nonlinear CFL safety bound dt <= 2 / (max|u|^2 * k_max)."""
    amp = float(np.max(np.abs(u)))
    if amp == 0.0:
        return np.inf
    return 2.0 / (amp**2 * g.k_max)


# points per block of _phi_functions, whose (block, 64) complex temporaries are
# 512 kB each instead of 2 MB at n = 4096
_PHI_ROWS = 512


def _phi_functions(z: np.ndarray):
    """phi_1, phi_2, phi_3 on a diagonal argument, via a 64-point contour mean.

    The mean over a unit circle around each point equals the function value
    (mean value property) and avoids cancellation for small |z|.  Each point's
    mean is reduced on its own, so the blocks change no bit.
    """
    r = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    p = np.empty((3, len(z)), dtype=complex)
    for i in range(0, len(z), _PHI_ROWS):
        zr = z[i : i + _PHI_ROWS, None] + r[None, :]
        ez = np.exp(zr)
        p[0, i : i + _PHI_ROWS] = np.mean((ez - 1.0) / zr, axis=1)
        p[1, i : i + _PHI_ROWS] = np.mean((ez - 1.0 - zr) / zr**2, axis=1)
        p[2, i : i + _PHI_ROWS] = np.mean((ez - 1.0 - zr - zr**2 / 2.0) / zr**3, axis=1)
    return p[0], p[1], p[2]


class _Stepper:
    """Exponential RK4 (Krogstad) stepper on rfft coefficients.

    The nonlinear term is N(u) = -ik (u^3)^; the step size h and the flux
    symbol -ik are folded into the nine Krogstad coefficients, so each stage
    multiplies the dealiased cube (u^3)^ directly.  So is the factor
    (m/n)^3 (n/m) = 4 that rescales the cube from the padded length m = 2n;
    a power of two, it changes no bit of the result.

    The padded grid of m points is the grid (even nodes) and its copy shifted
    by half a cell (odd nodes).  Row 0 of one (2, n/2 + 1) batch carries the
    coefficients for the even nodes, row 1 the same coefficients times
    e^{i pi k/n} for the odd ones, both times 1/2 = n/m; in both, mode n/2 is
    an ordinary mode of the padded length, not a Nyquist mode, so its weight
    is doubled.  One irfft of length n over the batch gives the padded
    samples, and the first n/2 + 1 coefficients of their cube are
    f[0] + e^{-i pi k/n} f[1] for the batch's rfft f.  The stage and work
    arrays live on the stepper and every transform and product writes into
    them; `step` allocates only the array it returns.
    """

    def __init__(self, g: Grid, dt: float):
        self.grid = g
        k = g.wavenumbers
        L = 1j * k**3  # symbol of -d^3/dx^3
        h = dt
        self.E = np.exp(h * L)
        self.E2 = np.exp(h * L / 2.0)
        p1h, p2h, _ = _phi_functions(h * L / 2.0)
        p1, p2, p3 = _phi_functions(h * L)
        hf = -h * g.d1_symbol * 4.0
        self.a21 = hf * (0.5 * p1h)
        self.a31 = hf * (0.5 * p1h - p2h)
        self.a32 = hf * p2h
        self.a41 = hf * (p1 - 2.0 * p2)
        self.a43 = hf * (2.0 * p2)
        self.b1 = hf * (p1 - 3.0 * p2 + 4.0 * p3)
        self.b2 = hf * (2.0 * p2 - 4.0 * p3)
        self.b4 = hf * (-p2 + 4.0 * p3)
        n, nh = g.n, g.n // 2 + 1
        shift = np.exp(1j * np.pi * np.arange(nh) / n)
        self._unshift = shift.conj()
        self._weights = np.stack([np.full(nh, 0.5 + 0j), 0.5 * shift])
        self._weights[:, -1] *= 2.0
        self._rows = np.empty((2, nh), dtype=complex)
        self._nodes = np.empty((2, n))
        self._cubed = np.empty((2, n))
        self._stages = np.empty((4, nh), dtype=complex)
        self._E2uh = np.empty(nh, dtype=complex)
        self._Euh = np.empty(nh, dtype=complex)
        self._arg = np.empty(nh, dtype=complex)
        self._term = np.empty(nh, dtype=complex)

    def _cube_hat(self, uh: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A quarter of the dealiased (u^3)^ for coefficients uh, written to out (see the class)."""
        f, v, w = self._rows, self._nodes, self._cubed
        np.multiply(uh, self._weights, out=f)
        np.fft.irfft(f, self.grid.n, out=v)
        np.multiply(v, v, out=w)
        np.multiply(w, v, out=w)
        np.fft.rfft(w, out=f)
        np.multiply(self._unshift, f[1], out=out)
        out += f[0]
        return out

    def step(self, uh: np.ndarray) -> np.ndarray:
        # each sum keeps the order of its plain form, e.g. E2uh + (a31 c1 + a32 c2)
        # and Euh + (b1 c1 + b2 c2 + b2 c3 + b4 c4), so only the cube moves bits
        cube, (c1, c2, c3, c4) = self._cube_hat, self._stages
        x, t = self._arg, self._term
        E2uh = np.multiply(self.E2, uh, out=self._E2uh)
        cube(uh, c1)
        np.multiply(self.a21, c1, out=x)
        cube(np.add(x, E2uh, out=x), c2)
        np.multiply(self.a31, c1, out=x)
        x += np.multiply(self.a32, c2, out=t)
        cube(np.add(x, E2uh, out=x), c3)
        Euh = np.multiply(self.E, uh, out=self._Euh)
        np.multiply(self.a41, c1, out=x)
        x += np.multiply(self.a43, c3, out=t)
        cube(np.add(x, Euh, out=x), c4)
        r = self.b1 * c1
        r += np.multiply(self.b2, c2, out=t)
        r += np.multiply(self.b2, c3, out=t)
        r += np.multiply(self.b4, c4, out=t)
        r += Euh
        return r


def _check_finite(values: np.ndarray, t: float):
    if not np.all(np.isfinite(values)) or np.max(np.abs(values)) > BLOWUP_LIMIT:
        raise BlowUp(t)


def evolve(g: Grid, u0: np.ndarray, controls: EvolutionControls) -> Trajectory:
    """Run the samples u0 on g from t = 0 to t_end, saving every save_every steps.

    Raises ValueError unless u0 is a finite float array of shape (g.n,), and
    BlowUp at the first step whose coefficients are not finite and at a save
    point whose values exceed BLOWUP_LIMIT.
    """
    if not (isinstance(u0, np.ndarray) and u0.dtype.kind == "f" and u0.shape == (g.n,)):
        raise ValueError(
            f"u0 must be a float array of shape ({g.n},), got {type(u0).__name__} "
            f"of shape {np.shape(u0)}"
        )
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 must be finite")
    bound = stability_bound(g, u0)
    if controls.dt > bound:
        raise ValueError(
            f"dt={controls.dt:.3e} exceeds the nonlinear CFL safety bound {bound:.3e}"
        )
    n_steps = int(round(controls.t_end / controls.dt))
    n_saves = 1 + math.ceil(n_steps / controls.save_every)
    stepper = _Stepper(g, controls.dt)
    uh = np.fft.rfft(u0)
    times = np.empty(n_saves)
    values = np.empty((n_saves, g.n))
    times[0], values[0] = 0.0, u0
    row = 1
    for i in range(1, n_steps + 1):
        uh = stepper.step(uh)
        t = i * controls.dt
        # Parseval probe at O(n): a NaN or an infinity in any coefficient
        # makes sum |uh|^2 non-finite, so a blow-up stops at its own step
        if not np.isfinite(np.vdot(uh, uh).real):
            raise BlowUp(t)
        if i % controls.save_every == 0 or i == n_steps:
            np.fft.irfft(uh, g.n, out=values[row])
            _check_finite(values[row], t)
            times[row] = t
            row += 1
    return Trajectory(times=times, values=values, grid=g)


def pde_residual(objects: Sequence[WaveObject], t: float, g: Grid) -> float:
    """Sup norm of u_t + (u_xx + u^3)_x for the sum of the given profiles.

    The time derivative uses a 4th-order centered difference of step 1e-4;
    space is spectral.  Sums of distinct objects are not exact solutions
    and give O(1) residuals when the objects overlap.
    """
    dt = 1e-4

    def u_at(tt: float) -> np.ndarray:
        return sum(eval_object(o, tt, g.x) for o in objects)

    u_t = (
        u_at(t - 2 * dt) - 8.0 * u_at(t - dt) + 8.0 * u_at(t + dt) - u_at(t + 2 * dt)
    ) / (12.0 * dt)
    u = u_at(t)
    flux = derivative_pair(g, u)[1] + u * u * u
    res = u_t + derivative_pair(g, flux)[0]
    return float(np.max(np.abs(res)))
