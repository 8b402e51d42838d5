"""Parameter selection, Lyapunov/weakened functionals, coercivity, reports."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mkdvlab import lyapunov
from mkdvlab.errors import EmptyAdmissibleInterval, HypothesisViolated
from mkdvlab.evolution import EvolutionControls, Trajectory, evolve
from mkdvlab.functionals import energy, localized_triple, mass, second_energy
from mkdvlab.grid import derivative_matrix, integrate, make_field, make_grid, spectral_derivative
from mkdvlab.lyapunov import (
    LyapunovParams,
    _form_matrix,
    _restrict_to_complement,
    _restricted_forms,
    _second_variation_weights,
    calibrate_slack,
    coefficient_positivity,
    coercivity_check,
    interpolation_inequality_check,
    monotonicity_report,
    quadratic_form_H,
    select_parameters,
    weakened_F,
)
from mkdvlab.modulation import modulation_directions
from mkdvlab.profiles import (
    Breather,
    Soliton,
    eval_object,
    order_and_validate,
    q_profile,
    shape_pair,
    soliton_eval,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(50.0, 1024)


def _flagship():
    return order_and_validate(
        [Breather(1.0, 1.0, x2=60.0), Soliton(1.0), Soliton(4.0, x0=60.0)]
    )


def test_select_parameters_flagship_worked_values():
    p = select_parameters(_flagship(), 0.01)
    assert p.nu1 == pytest.approx(0.5)
    assert p.nu == pytest.approx(5.0 / 6.0)
    assert p.nu_prime == pytest.approx(2.0 / 3.0)
    assert p.nu2 == pytest.approx(1.0 / 12.0)
    assert p.nu3 == pytest.approx(1.0 / 12.0)
    assert p.fam.speeds == pytest.approx((0.5, 2.5))
    assert p.fam.sigma == pytest.approx(0.01)


def test_select_parameters_two_solitons_midpoint():
    cfg = order_and_validate([Soliton(1.0), Soliton(4.0, x0=40.0)])
    p = select_parameters(cfg, 0.01)
    # all velocities positive, quadratic constraint inactive: plain midpoint
    assert p.fam.speeds == pytest.approx((2.5,))
    assert p.nu1 == pytest.approx(0.5)


def test_select_parameters_hypothesis_violated():
    cfg = order_and_validate(
        [Breather(1.0, 1.0), Breather(1.2, 1.0, x2=50.0)]
    )
    assert not cfg.positive_v2
    with pytest.raises(HypothesisViolated):
        select_parameters(cfg, 0.01)
    # with the override, no rightward-moving cutoff can sit below v2 < 0
    with pytest.raises(EmptyAdmissibleInterval):
        select_parameters(cfg, 0.01, override=True)
    # a single negative-velocity object needs no cutoff, so the override works
    single = order_and_validate([Breather(1.0, 1.0)])
    p = select_parameters(single, 0.01, override=True)
    assert 0 < p.nu1 < 1


def test_select_parameters_midpoints_for_later_speeds():
    cfg = order_and_validate(
        [Soliton(0.5), Soliton(2.0, x0=30.0), Soliton(5.0, x0=60.0)]
    )
    p = select_parameters(cfg, 0.01)
    assert p.fam.speeds[1] == pytest.approx((2.0 + 5.0) / 2.0)


def test_validate_rejects_tampered_params():
    p = select_parameters(_flagship(), 0.01)
    bad = LyapunovParams(
        nu1=p.nu1,
        nu=p.nu + 0.01,
        nu_prime=p.nu_prime,
        nu2=p.nu2,
        nu3=p.nu3,
        shape_pairs=p.shape_pairs,
        fam=p.fam,
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_sigma_shrunk_when_first_shape_very_negative():
    # strongly negative b1^2 - a1^2 forces a smaller effective sigma
    cfg = order_and_validate([Breather(2.0, 0.1, x2=40.0), Soliton(1.0)])
    p = select_parameters(cfg, 100.0)
    assert p.fam.sigma < 100.0
    assert coefficient_positivity(p, 1).all_hold


def test_lyapunov_H_zero_field(grid):
    p = select_parameters(_flagship(), 0.01)
    zero = make_field(grid, np.zeros(grid.n))
    assert weakened_F(zero, 1, p, 0.0, nu=1.0) == 0.0
    assert weakened_F(zero, 1, p, 0.0) == 0.0


def test_lyapunov_H_single_soliton_composition(grid):
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    u = make_field(grid, q_profile(1.0, grid.x))
    # j = J = 1: Phi == 1, (a,b) = (0,1), localized mass = 2 * mass
    expected = second_energy(u) + 2.0 * energy(u) + 2.0 * mass(u)
    assert weakened_F(u, 1, p, 0.0, nu=1.0) == pytest.approx(expected, rel=1e-12)


def test_lyapunov_dominates_weakened(grid):
    p = select_parameters(_flagship(), 0.01)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = make_field(
            grid, np.exp(-(grid.x**2) / 16) * rng.standard_normal(grid.n)
        )
        diff = weakened_F(u, 1, p, 0.3, nu=1.0) - weakened_F(u, 1, p, 0.3)
        assert diff >= -1e-12


def test_quadratic_form_zero_and_homogeneity(grid):
    p = select_parameters(_flagship(), 0.01)
    zero = make_field(grid, np.zeros(grid.n))
    prof = make_field(grid, soliton_eval(Soliton(1.0), 0.0, grid.x))
    assert quadratic_form_H(zero, prof, 2, p, 0.0) == 0.0
    rng = np.random.default_rng(8)
    w = make_field(grid, np.exp(-(grid.x**2) / 25) * rng.standard_normal(grid.n))
    w2 = make_field(grid, 2.0 * w.values)
    assert quadratic_form_H(w2, prof, 2, p, 0.0) == pytest.approx(
        4.0 * quadratic_form_H(w, prof, 2, p, 0.0), rel=1e-12
    )


def test_quadratic_form_free_field_reduction(grid):
    # zero profile with the identity weight: only the three Sobolev terms
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    zero_prof = make_field(grid, np.zeros(grid.n))
    rng = np.random.default_rng(9)
    w = make_field(grid, np.exp(-(grid.x**2) / 25) * rng.standard_normal(grid.n))
    wx = spectral_derivative(w, 1).values
    wxx = spectral_derivative(w, 2).values
    a, b = 0.0, 1.0
    expected = (
        0.5 * integrate(grid, wxx**2)
        + (b**2 - a**2) * integrate(grid, wx**2)
        + 0.5 * (a**2 + b**2) ** 2 * integrate(grid, w.values**2)
    )
    assert quadratic_form_H(w, zero_prof, 1, p, 0.0) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("obj", [Soliton(1.0), Breather(1.0, 1.0)], ids=["soliton", "breather"])
def test_form_matrix_matches_quadratic_form_H(obj):
    # the eigencheck's dense matrix and quadratic_form_H share their weights
    g = make_grid(25.0, 256)
    p = select_parameters(order_and_validate([obj]), 0.01, override=True)
    prof = make_field(g, eval_object(obj, 0.0, g.x))
    weights = _second_variation_weights(
        prof.values, p.fam.weight(1, 0.0, g.x), *shape_pair(obj), g
    )
    A = _form_matrix(weights, g)
    rng = np.random.default_rng(11)
    w = make_field(g, np.exp(-(g.x**2) / 25) * rng.standard_normal(g.n))
    assert g.h * (w.values @ A @ w.values) == pytest.approx(
        quadratic_form_H(w, prof, 1, p, 0.0), rel=1e-12
    )


OBJECTS = [Soliton(1.0), Soliton(4.0), Breather(1.0, 1.0)]
OBJECT_IDS = ["c1", "c4", "breather"]


def _coercivity_setup(obj):
    """The coercivity kind's re-centred grid at n = 256 and the object's parameters."""
    g = make_grid(max(20.0, 8.0 / shape_pair(obj)[1]), 256)
    return g, select_parameters(order_and_validate([obj]), 0.01, override=True)


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_form_matrix_matches_dense_products(obj):
    # the FFT assembly against the two dense products it replaces
    g, p = _coercivity_setup(obj)
    phi = p.fam.weight(1, 0.0, g.x)
    d1, d2 = derivative_matrix(g, 1), derivative_matrix(g, 2)
    for c2, c1, c0 in (
        _second_variation_weights(eval_object(obj, 0.0, g.x), phi, *shape_pair(obj), g),
        (phi, phi, phi),
    ):
        ref = (d2.T * c2) @ d2 + (d1.T * c1) @ d1 + np.diag(c0)
        A = _form_matrix((c2, c1, c0), g)
        assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_reflector_restriction_matches_null_space_basis(obj, monkeypatch):
    # the Householder restriction and an orthonormal null-space basis differ by
    # a rotation of the complement, which moves no generalized eigenvalue and no mu
    g, p = _coercivity_setup(obj)

    def null_space_forms(obj, p, j, g, impose_orthogonality):
        A, B, pen = _restricted_forms(obj, p, j, g, False)
        basis = scipy.linalg.null_space(modulation_directions(obj, (), 0.0, g))
        return basis.T @ A @ basis, basis.T @ B @ basis, basis.T @ pen

    lowest, invariants = [], []
    for forms in (_restricted_forms, null_space_forms):
        Ar, Br, pr = forms(obj, p, 1, g, True)
        assert Ar.shape == Br.shape == (g.n - len(modulation_directions(obj, (), 0.0, g)),) * 2
        lowest.append(scipy.linalg.eigh(Ar, Br, eigvals_only=True, subset_by_index=[0, 4]))
        invariants.append([pr @ pr, pr @ Ar @ pr, pr @ Br @ pr])
    np.testing.assert_allclose(lowest[0], lowest[1], rtol=0, atol=1e-10)
    np.testing.assert_allclose(invariants[0], invariants[1], rtol=1e-10)
    mu = coercivity_check(obj, p, 1, g).mu
    monkeypatch.setattr(lyapunov, "_restricted_forms", null_space_forms)
    assert coercivity_check(obj, p, 1, g).mu == mu > 0


def test_restriction_to_complement_on_random_data():
    # a vector with a component along the directions, which the profiles' own
    # penalty vectors (orthogonal to their derivatives) never have
    rng = np.random.default_rng(4)
    n = 64
    V = rng.standard_normal((n, 2))
    M = rng.standard_normal((n, n))
    X = M + M.T
    vec = rng.standard_normal(n)
    basis = scipy.linalg.null_space(V.T)
    ref_X, ref_vec = basis.T @ X @ basis, basis.T @ vec
    (Xr,), vr = _restrict_to_complement(V, (X.copy(),), vec.copy())
    np.testing.assert_allclose(np.linalg.eigvalsh(Xr), np.linalg.eigvalsh(ref_X), atol=1e-12)
    np.testing.assert_allclose(
        [vr @ vr, vr @ Xr @ vr], [ref_vec @ ref_vec, ref_vec @ ref_X @ ref_vec], rtol=1e-12
    )


def test_coercivity_soliton_small_grid():
    g = make_grid(25.0, 256)
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    res = coercivity_check(cfg.objects[0], p, 1, g)
    assert res.mu > 0


@pytest.mark.parametrize("obj", OBJECTS, ids=OBJECT_IDS)
def test_coercivity_mu_matches_per_mu_eigensolves(obj):
    # the inertia rule against one penalized eigensolve per mu, on the
    # re-centred grid of the coercivity kind
    g, p = _coercivity_setup(obj)
    Ar, Br, pr = _restricted_forms(obj, p, 1, g, True)
    ref = 0.0
    for mu in np.logspace(-4, 0.5, 46):
        lam = scipy.linalg.eigh(
            Ar + (g.h**2 / mu) * np.outer(pr, pr), Br, eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        if lam >= mu:
            ref = max(ref, mu)
    assert coercivity_check(obj, p, 1, g).mu == ref > 0


def test_coercivity_rejects_oversized_grid():
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    with pytest.raises(ValueError):
        coercivity_check(cfg.objects[0], p, 1, make_grid(100.0, 8192))


def test_monotonicity_zero_trajectory(grid):
    p = select_parameters(_flagship(), 0.01)
    traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), values=np.zeros((3, grid.n)), grid=grid)
    reps = monotonicity_report(traj, 1, p)
    assert list(reps) == ["Mj", "Ej+omega*Mj", "Fj+omega*Mj", "weakened_F"]
    for rep in reps.values():
        assert rep.worst_drop == 0.0
        assert rep.values == [0.0, 0.0, 0.0]


def test_monotonicity_flags_synthetic_decrease(grid):
    # a decaying artificial series must register a positive worst_drop
    p = select_parameters(_flagship(), 0.01)
    values = np.array([amp * q_profile(1.0, grid.x + 45.0) for amp in (1.0, 0.9, 0.8)])
    traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), values=values, grid=grid)
    rep = monotonicity_report(traj, 1, p, C=0.0, budget=1e-5)["Mj"]
    assert rep.worst_drop > 0.1


def test_monotonicity_report_values_are_the_named_functionals(grid):
    p = select_parameters(_flagship(), 0.01)
    omega = p.default_omega()
    values = np.array([amp * q_profile(1.0, grid.x + 45.0) for amp in (1.0, 0.9)])
    traj = Trajectory(times=np.array([0.0, 1.0]), values=values, grid=grid)
    reps = monotonicity_report(traj, 1, p)
    for i, (t, row) in enumerate(zip(traj.times, values)):
        u = make_field(grid, row)
        trip = localized_triple(u, p.fam, 1, t)
        assert trip.Mj != 0.0 and trip.Ej != 0.0 and trip.Fj != 0.0
        assert reps["Mj"].values[i] == trip.Mj
        assert reps["Ej+omega*Mj"].values[i] == trip.Ej + omega * trip.Mj
        assert reps["Fj+omega*Mj"].values[i] == trip.Fj + omega * trip.Mj
        assert reps["weakened_F"].values[i] == weakened_F(u, 1, p, t)


def test_monotonicity_conserved_single_soliton():
    g = make_grid(100.0, 2048)
    cfg = order_and_validate([Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    u0 = make_field(g, soliton_eval(Soliton(1.0), 0.0, g.x))
    traj = evolve(u0, EvolutionControls(dt=1e-3, t_end=2.0, save_every=500))
    reps = monotonicity_report(traj, 1, p, C=0.0, budget=1e-6)
    assert len(reps) == 4
    for rep in reps.values():
        assert rep.worst_drop == 0.0


def test_interpolation_inequality_zero(grid):
    p = select_parameters(_flagship(), 0.01)
    zero = make_field(grid, np.zeros(grid.n))
    rep = interpolation_inequality_check(zero, p.fam, 1)
    assert rep.holds_quadratic and rep.holds_linear


def test_interpolation_inequality_soliton_at_transition():
    g = make_grid(100.0, 2048)
    p = select_parameters(_flagship(), 0.01)
    u = make_field(g, q_profile(1.0, g.x))  # centered on the j=1 transition
    rep = interpolation_inequality_check(u, p.fam, 1)
    assert rep.holds_quadratic and rep.holds_linear
    assert rep.ratio < 1.0


def test_interpolation_inequality_random_fields():
    g = make_grid(100.0, 2048)
    p = select_parameters(_flagship(), 0.01)
    rng = np.random.default_rng(21)
    for _ in range(100):
        coef = rng.standard_normal(6)
        width = rng.uniform(3.0, 12.0)
        x0 = rng.uniform(-30.0, 30.0)
        vals = np.exp(-((g.x - x0) ** 2) / (2 * width**2)) * sum(
            c * np.cos(0.2 * (k + 1) * g.x) for k, c in enumerate(coef)
        )
        rep = interpolation_inequality_check(make_field(g, vals), p.fam, 1)
        assert rep.holds_quadratic and rep.holds_linear


def test_coefficient_positivity_flagship_arithmetic():
    p = select_parameters(_flagship(), 0.01)
    rep = coefficient_positivity(p, 1)
    # first shape pair (1,1): first value 3*0 + 3*0.5*2 = 3, fourth
    # (3/2)(5/6)*4 + 0.5*0 - (3/2)(2/3)*4 = 5 - 4 = 1
    assert rep.values[0] == pytest.approx(3.0)
    assert rep.values[3] == pytest.approx(1.0)
    assert rep.all_hold


def test_coefficient_positivity_soliton_trivial():
    cfg = order_and_validate([Soliton(1.0), Soliton(4.0, x0=40.0)])
    p = select_parameters(cfg, 0.01)
    assert coefficient_positivity(p, 1).all_hold


def test_coefficient_positivity_huge_sigma_negative_control():
    cfg = order_and_validate([Breather(2.0, 0.1, x2=40.0), Soliton(1.0)])
    p = select_parameters(cfg, 0.01)
    rep = coefficient_positivity(replace(p, fam=replace(p.fam, sigma=100.0)), 1)
    assert not rep.holds[1] and not rep.holds[2]


def test_calibrate_slack_positive():
    g = make_grid(100.0, 2048)
    cfg = _flagship()
    p = select_parameters(cfg, 0.01)
    varpi, C = calibrate_slack(cfg, p, g)
    assert varpi > 0 and C > 0 and np.isfinite(C)
