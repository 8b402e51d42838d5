"""Uniform periodic grid, Fourier differentiation, quadrature and Sobolev norms.

The domain is [-L, L) sampled at n equispaced nodes.  Differentiation is
done by FFT (exact for band-limited functions), quadrature is the trapezoid
rule on the periodic grid, which is spectrally accurate here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.h * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Real-FFT wavenumber layout, k_m = pi*m/L for m = 0..n/2."""
        return np.pi / self.half_length * np.arange(self.n // 2 + 1)

    @property
    def k_max(self) -> float:
        return np.pi * self.n / (2.0 * self.half_length)


@dataclass(frozen=True)
class Field:
    """Real-valued samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)


def make_grid(L: float, n: int) -> Grid:
    """Build the periodic grid on [-L, L) with n nodes."""
    return Grid(half_length=float(L), n=int(n))


def make_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid=grid, values=np.asarray(values, dtype=float))


def _fourier_symbol(grid: Grid, order: int) -> np.ndarray:
    """(ik)^order on the rfft layout, order 1..4; zero at Nyquist for odd orders."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    sym = (1j * grid.wavenumbers) ** order
    if order % 2 == 1:
        # the Nyquist mode has no well-defined odd derivative on a real grid
        sym[-1] = 0.0
    return sym


def spectral_derivative(f: Field, order: int) -> Field:
    """Fourier differentiation of the given order (1..4)."""
    g = f.grid
    fh = _fourier_symbol(g, order) * np.fft.rfft(f.values)
    return make_field(g, np.fft.irfft(fh, g.n))


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid quadrature h * sum(values) on the periodic grid."""
    return grid.h * float(np.sum(values))


def h2_norm_sq(f: Field) -> float:
    """Discrete squared H^2 norm: integral of f^2 + f_x^2 + f_xx^2."""
    fx = spectral_derivative(f, 1)
    fxx = spectral_derivative(f, 2)
    return (
        integrate(f.grid, f.values**2)
        + integrate(f.grid, fx.values**2)
        + integrate(f.grid, fxx.values**2)
    )


def derivative_matrix(grid: Grid, order: int) -> np.ndarray:
    """Dense spectral differentiation matrix (used by the coercivity check).

    Differentiation commutes with shifts, so the matrix is the circulant
    D[i, j] = col[(i - j) mod n] of its first column, the derivative of a unit
    impulse: row i is the window of ext = (col[n-1], ..., col[0], col[n-1], ..., col[1])
    that starts at n - 1 - i.
    """
    col = np.fft.irfft(_fourier_symbol(grid, order), grid.n)
    ext = np.concatenate((col[::-1], col[:0:-1]))
    return np.lib.stride_tricks.sliding_window_view(ext, grid.n)[::-1].copy()
