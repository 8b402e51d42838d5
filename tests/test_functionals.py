"""Conserved quantities, cutoff family, localized integrals, criticality."""

from dataclasses import replace

import numpy as np
import pytest

from mkdvlab import functionals
from mkdvlab.functionals import (
    CutoffFamily,
    make_cutoff_family,
    psi,
    weighted_integrals,
)
from mkdvlab.grid import integrate, make_grid
from mkdvlab.profiles import (
    Breather,
    Soliton,
    breather_eval,
    order_and_validate,
    q_profile,
    shape_pair,
    soliton_eval,
)
from oracles import (
    cutoff_derivative_inequality,
    derivative_inequality_holds,
    h2_norm_sq,
    psi_prime,
    psi_second,
    spectral_derivative,
    weight_x,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(50.0, 2048)


def _q1(grid, x0=0.0):
    return q_profile(1.0, grid.x - x0)


def _conserved(g, u):
    """(M, E, F) with the conserved mass M = (1/2) int u^2: the whole-line row, halved."""
    m2, e, f = weighted_integrals(g, u, (1.0,))[0]
    return 0.5 * m2, e, f


def test_mass_of_zero(grid):
    assert _conserved(grid, np.zeros(grid.n))[0] == 0.0


def test_mass_of_soliton(grid):
    # int Q_c^2 = 4 sqrt(c), so the half-convention mass of Q_1 is 2
    assert _conserved(grid, _q1(grid))[0] == pytest.approx(2.0, abs=1e-12)


def test_energy_of_soliton(grid):
    # E[Q_c] = -(2/3) c^{3/2}
    assert _conserved(grid, _q1(grid))[1] == pytest.approx(-2.0 / 3.0, abs=1e-9)
    q2 = q_profile(2.0, grid.x)
    assert _conserved(grid, q2)[1] == pytest.approx(-(2.0 / 3.0) * 2.0**1.5, abs=1e-9)


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_second_energy_of_soliton(grid, c):
    # Q_c = sqrt(2c) sech(sqrt(c) x): with int sech^2 = 2, int sech^4 = 4/3 and
    # int sech^6 = 16/15, F[Q_c] = (2/5) c^{5/2}
    assert _conserved(grid, q_profile(c, grid.x))[2] == pytest.approx(
        0.4 * c**2.5, rel=2e-15
    )


def test_energy_small_amplitude(grid):
    eps = 1e-3
    u = eps * q_profile(1.0, grid.x)
    qx = spectral_derivative(grid, _q1(grid), 1)
    expected = 0.5 * eps**2 * integrate(grid, qx**2)
    e = _conserved(grid, u)[1]
    assert e == pytest.approx(expected, rel=1e-5)
    assert e > 0


def test_second_energy_grid_converged():
    vals = []
    for n in (2048, 4096):
        g = make_grid(50.0, n)
        vals.append(_conserved(g, q_profile(1.0, g.x))[2])
    assert vals[0] == pytest.approx(vals[1], rel=1e-8)


def test_second_energy_small_amplitude_scaling(grid):
    eps = 1e-4
    base = np.exp(-(grid.x**2) / 8)
    lead = 0.5 * integrate(grid, spectral_derivative(grid, base, 2) ** 2)
    assert _conserved(grid, eps * base)[2] == pytest.approx(eps**2 * lead, rel=1e-6)


def test_psi_pointwise_values():
    assert psi(0.01, 0.0) == pytest.approx(0.5, abs=1e-14)
    for x in (0.3, 1.7, 9.0):
        assert psi(0.01, x) + psi(0.01, -x) == pytest.approx(1.0, abs=1e-14)
    # Psi'(0) = -sqrt(sigma)/(2 pi) from differentiating the arctan-exp form
    assert psi_prime(0.01, 0.0) == pytest.approx(-np.sqrt(0.01) / (2 * np.pi))
    assert psi_prime(0.01, 0.0) == pytest.approx(-1.59154943e-2, rel=1e-8)


def test_psi_monotone_decreasing():
    x = np.linspace(-40, 40, 500)
    vals = psi(0.01, x)
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals > 0) & (vals < 1))


def test_psi_saturates_without_overflow():
    # exp(-sqrt(sigma) x / 2) overflows past an exponent of 709.78, at x < -89.8
    # for sigma = 250, inside a box of half-length 100, and the suite turns the
    # RuntimeWarning into an error.  The exponent is capped at 700, where arctan
    # already returns the double it returns for inf, so no value moves
    x = np.array([-1e300, -100.0, -89.8, -89.0, -1.0, 0.0, 100.0])
    with np.errstate(over="ignore"):
        raw = np.exp(-0.5 * np.sqrt(250.0) * x)
    # three overflow, and x = -89 (exponent 703.6) is capped without overflowing
    assert np.isinf(raw[:3]).all() and np.isfinite(raw[3:]).all()
    assert np.array_equal(psi(250.0, x), (2.0 / np.pi) * np.arctan(raw))


def test_psi_requires_positive_sigma():
    with pytest.raises(ValueError):
        psi(0.0, 1.0)


def test_psi_derivatives_match_finite_differences():
    x = np.linspace(-30, 30, 200)
    eps = 1e-6
    fd1 = (psi(0.04, x + eps) - psi(0.04, x - eps)) / (2 * eps)
    fd2 = (psi_prime(0.04, x + eps) - psi_prime(0.04, x - eps)) / (2 * eps)
    np.testing.assert_allclose(psi_prime(0.04, x), fd1, atol=1e-9)
    np.testing.assert_allclose(psi_second(0.04, x), fd2, atol=1e-9)


def test_cutoff_weight_is_translated_psi():
    x = np.linspace(-20, 20, 100)
    fam = CutoffFamily(sigma=0.01, speeds=(0.5,), tau0=0.5)
    np.testing.assert_allclose(fam.weight(1, 4.0, x), psi(0.01, x - 2.0))


@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1, 1.0])
def test_cutoff_derivative_inequality(sigma):
    assert cutoff_derivative_inequality(sigma, make_grid(100.0, 4096))


def test_derivative_inequality_negative_control():
    # a perturbed weight violates the second/first derivative bound
    x = make_grid(100.0, 4096).x
    first = psi_prime(0.01, x) + 0.1 * np.cos(x)
    second = psi_second(0.01, x) - 0.1 * np.sin(x)
    assert not derivative_inequality_holds(first, second, 0.01)


def _flagship():
    return order_and_validate(
        [Breather(1.0, 1.0, x2=60.0), Soliton(1.0), Soliton(4.0, x0=60.0)]
    )


def test_make_cutoff_family_flagship():
    fam = make_cutoff_family(_flagship(), (0.5, 2.5), 0.01)
    assert fam.J == 3
    assert fam.tau0 == pytest.approx(0.5)
    assert replace(fam, speeds=(0.5,)).J == 2


def test_make_cutoff_family_rejects_bad_speeds():
    cfg = _flagship()
    with pytest.raises(ValueError):
        make_cutoff_family(cfg, (1.5, 2.5), 0.01)  # m_1 above v_2
    with pytest.raises(ValueError):
        make_cutoff_family(cfg, (0.5,), 0.01)  # wrong count


def test_weight_last_is_one(grid):
    fam = make_cutoff_family(_flagship(), (0.5, 2.5), 0.01)
    np.testing.assert_array_equal(fam.weight(3, 1.0, grid.x), np.ones(grid.n))
    np.testing.assert_array_equal(weight_x(fam, 3, 1.0, grid.x), np.zeros(grid.n))
    with pytest.raises(IndexError):
        fam.weight(4, 0.0, grid.x)


def test_localized_triple_global_weight(grid):
    # Phi_J = 1 gives the whole line, the row of the weight 1.0 bit for bit; M_j
    # drops the 1/2 of the conserved mass, so the row is (2M, E, F)
    fam = make_cutoff_family(_flagship(), (0.5, 2.5), 0.01)
    u = _q1(grid)
    rows = weighted_integrals(grid, u, (fam.weight(3, 0.0, grid.x), 1.0))
    assert np.array_equal(rows[0], rows[1])
    assert rows[0, 0] == pytest.approx(4.0, abs=2e-12)  # int Q_1^2 = 4 = 2 M[Q_1]


def test_weighted_integrals_share_one_derivative_pair(grid, monkeypatch):
    # every weight of a call reads one derivative pair, and each row has the
    # bits of that weight asked for alone
    calls = []
    pair = functionals.derivative_pair
    monkeypatch.setattr(functionals, "derivative_pair", lambda g, f: calls.append(g) or pair(g, f))
    fam = make_cutoff_family(_flagship(), (0.5, 2.5), 0.01)
    u = breather_eval(Breather(1.0, 1.0), 0.0, grid.x) + _q1(grid, 20.0)
    weights = [fam.weight(j, 0.3, grid.x) for j in (1, 2, 3)] + [1.0]
    rows = weighted_integrals(grid, u, weights)
    assert rows.shape == (4, 3) and calls == [grid]
    for w, row in zip(weights, rows):
        assert np.array_equal(row, weighted_integrals(grid, u, [w])[0])
    assert weighted_integrals(grid, u, []).shape == (0, 3)


def test_localized_triple_weight_localization(grid):
    # sigma = 1 keeps the cutoff transition narrow enough that a profile 40
    # units away sees weight ~1e-9 on one side and ~1 on the other
    fam = CutoffFamily(sigma=1.0, speeds=(0.5,), tau0=0.5)
    far_right = q_profile(1.0, grid.x - 40.0)
    far_left = q_profile(1.0, grid.x + 40.0)
    l2 = integrate(grid, far_right**2)
    phi = [fam.weight(1, 0.0, grid.x)]
    assert weighted_integrals(grid, far_right, phi)[0, 0] < 1e-3 * l2
    assert weighted_integrals(grid, far_left, phi)[0, 0] == pytest.approx(4.0, abs=1e-3)


def test_localization_consistency(grid):
    fam = CutoffFamily(sigma=0.01, speeds=(0.5,), tau0=0.5)
    u = breather_eval(Breather(1.0, 1.0), 0.0, grid.x)
    phi = fam.weight(1, 0.0, grid.x)
    total = integrate(grid, u**2)
    split = weighted_integrals(grid, u, [phi])[0, 0] + integrate(grid, u**2 * (1 - phi))
    assert split == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize(
    "obj",
    [Soliton(c=1.0), Soliton(c=2.5), Breather(alpha=1.0, beta=1.0)],
)
def test_criticality_of_profiles(obj, grid):
    # the first variation of F + 2(b^2-a^2)E + (a^2+b^2)^2 * mass vanishes
    # at the profile, for random smooth localized directions
    a, b = shape_pair(obj)
    if isinstance(obj, Soliton):
        p = soliton_eval(obj, 0.0, grid.x)
    else:
        p = breather_eval(obj, 0.0, grid.x)

    def functional(u):
        M, E, F = _conserved(grid, u)
        return F + 2.0 * (b**2 - a**2) * E + (a**2 + b**2) ** 2 * M

    rng = np.random.default_rng(11)
    s = 1e-4
    for _ in range(20):
        coef = rng.standard_normal(5)
        width = rng.uniform(2.0, 6.0)
        phi_vals = np.exp(-(grid.x**2) / (2 * width**2)) * sum(
            c * np.cos(0.3 * k * grid.x) for k, c in enumerate(coef)
        )
        deriv = (functional(p + s * phi_vals) - functional(p - s * phi_vals)) / (2 * s)
        assert abs(deriv) < 1e-5 * np.sqrt(h2_norm_sq(grid, phi_vals))
