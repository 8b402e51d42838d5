"""Uniform periodic grid, Fourier differentiation, quadrature and Sobolev norms.

The domain is [-L, L) sampled at n equispaced nodes.  Differentiation is
done by FFT (exact for band-limited functions), quadrature is the trapezoid
rule on the periodic grid, which is spectrally accurate here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with n nodes, n a power of two."""

    half_length: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.half_length):
            raise ValueError(f"half_length must be finite, got {self.half_length}")
        if self.half_length <= 0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if not _is_power_of_two(self.n) or self.n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """The nodes, computed once per grid; read-only."""
        return _read_only(-self.half_length + self.h * np.arange(self.n))

    @property
    def wavenumbers(self) -> np.ndarray:
        """Real-FFT wavenumber layout, k_m = pi*m/L for m = 0..n/2."""
        return np.pi / self.half_length * np.arange(self.n // 2 + 1)

    @property
    def k_max(self) -> float:
        return np.pi * self.n / (2.0 * self.half_length)

    @cached_property
    def d1_symbol(self) -> np.ndarray:
        """The order-1 Fourier symbol, computed once per grid; read-only."""
        return _read_only(_power_symbol(self, 1))

    @cached_property
    def d2_symbol(self) -> np.ndarray:
        """The order-2 Fourier symbol, computed once per grid; read-only."""
        return _read_only(_power_symbol(self, 2))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_grid(L: float, n: int) -> Grid:
    """Build the periodic grid on [-L, L) with n nodes."""
    return Grid(half_length=float(L), n=int(n))


def _power_symbol(grid: Grid, order: int) -> np.ndarray:
    """(ik)^order on the rfft layout, built afresh."""
    sym = (1j * grid.wavenumbers) ** order
    if order % 2 == 1:
        # the Nyquist mode has no well-defined odd derivative on a real grid
        sym[-1] = 0.0
    return sym


def derivative_pair(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_x, f_xx) of the samples f, from one forward transform and the grid's
    cached order-1 and order-2 symbols."""
    fh = np.fft.rfft(f)
    return np.fft.irfft(grid.d1_symbol * fh, grid.n), np.fft.irfft(grid.d2_symbol * fh, grid.n)


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid quadrature h * sum(values) on the periodic grid."""
    return grid.h * float(np.sum(values))


def _h2_sum(grid: Grid, f: np.ndarray, fx: np.ndarray, fxx: np.ndarray) -> float:
    """Discrete squared H^2 norm, the integral of f^2 + f_x^2 + f_xx^2, from the samples
    of f and their derivative pair."""
    return integrate(grid, f**2) + integrate(grid, fx**2) + integrate(grid, fxx**2)

