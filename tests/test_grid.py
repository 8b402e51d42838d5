"""Grid construction, spectral differentiation, quadrature and norms."""

import numpy as np
import pytest

from mkdvlab.grid import _power_symbol, derivative_pair, integrate, make_grid
from mkdvlab.profiles import Breather, Soliton, eval_object
from oracles import circulant, h2_norm_sq, spectral_derivative


def test_grid_properties():
    g = make_grid(50.0, 256)
    assert g.h == pytest.approx(100.0 / 256)
    assert g.x[0] == pytest.approx(-50.0)
    assert g.x[-1] == pytest.approx(50.0 - g.h)
    assert g.k_max == pytest.approx(np.pi * 256 / 100.0)
    assert len(g.wavenumbers) == 129


@pytest.mark.parametrize("n", [0, 15, 17, 100, 1000])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        make_grid(10.0, n)


def test_grid_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        make_grid(-1.0, 64)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            make_grid(bad, 64)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_spectral_derivative_of_gaussian(order):
    g = make_grid(20.0, 512)
    x = g.x
    f = np.exp(-(x**2))
    # analytic derivatives of exp(-x^2) via Hermite-style recursions
    exact = {
        1: -2 * x * np.exp(-(x**2)),
        2: (4 * x**2 - 2) * np.exp(-(x**2)),
        3: (12 * x - 8 * x**3) * np.exp(-(x**2)),
        4: (16 * x**4 - 48 * x**2 + 12) * np.exp(-(x**2)),
    }[order]
    np.testing.assert_allclose(spectral_derivative(g, f, order), exact, atol=1e-9)


def test_spectral_derivative_order_validation():
    g = make_grid(10.0, 64)
    with pytest.raises(ValueError):
        spectral_derivative(g, np.zeros(64), 5)


def test_quadrature_of_gaussian():
    g = make_grid(30.0, 512)
    assert integrate(g, np.exp(-(g.x**2))) == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_h2_norm_of_sine():
    # int over one period of sin^2(kx)(1 + k^2 + k^4) with k = pi/L
    g = make_grid(np.pi, 128)
    k = 1.0
    expected = np.pi * (1 + k**2 + k**4)
    assert h2_norm_sq(g, np.sin(k * g.x)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_matches_spectral_derivative(order):
    g = make_grid(15.0, 128)
    rng = np.random.default_rng(3)
    vals = np.exp(-(g.x**2) / 4) * rng.standard_normal(g.n)
    # smooth it so the matrix and the FFT agree to round-off on the same data
    f = np.convolve(vals, np.ones(8) / 8, mode="same")
    D = circulant(g, _power_symbol(g, order))
    np.testing.assert_allclose(D @ f, spectral_derivative(g, f, order), atol=1e-8)


@pytest.mark.parametrize(
    "obj", [Breather(1.0, 1.0, x2=3.0), Soliton(4.0, kappa=-1, x0=-5.0)], ids=["breather", "soliton"]
)
def test_derivative_pair_has_the_bits_of_spectral_derivative(obj):
    g = make_grid(100.0, 4096)
    f = eval_object(obj, 0.3, g.x)
    ux, uxx = derivative_pair(g, f)
    assert np.array_equal(ux, spectral_derivative(g, f, 1))
    assert np.array_equal(uxx, spectral_derivative(g, f, 2))


def test_grid_caches_are_built_once_and_read_only():
    g = make_grid(50.0, 256)
    assert g.x is g.x and g.d1_symbol is g.d1_symbol and g.d2_symbol is g.d2_symbol
    assert np.array_equal(g.x, -50.0 + g.h * np.arange(256))
    ik = 1j * g.wavenumbers
    assert np.array_equal(g.d2_symbol, ik**2)
    assert np.array_equal(g.d1_symbol[:-1], ik[:-1]) and g.d1_symbol[-1] == 0.0
    for cached in (g.x, g.d1_symbol, g.d2_symbol):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    # the caches are not fields: equality and hashing see only L and n
    assert g == make_grid(50.0, 256) and hash(g) == hash(make_grid(50.0, 256))
