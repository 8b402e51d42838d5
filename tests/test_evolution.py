"""Time integrator accuracy, conservation at short horizons, and safeguards."""

import numpy as np
import pytest

from mkdvlab import evolution
from mkdvlab.errors import BlowUp, Unresolved
from mkdvlab.evolution import (
    EvolutionControls,
    _phi_functions,
    _Stepper,
    evolve,
    pde_residual,
    stability_bound,
)
from mkdvlab.functionals import _energy_density, _second_energy_density
from mkdvlab.grid import make_grid
from mkdvlab.profiles import Breather, Soliton, breather_eval, eval_object, soliton_eval
from oracles import h2_norm_sq, padded_cube_hat, spectral_derivative


# the flagship's objects: a breather and two solitons
FLAGSHIP = (Breather(1.0, 1.0, x2=60.0), Soliton(1.0), Soliton(4.0, x0=60.0))


@pytest.fixture(scope="module")
def grid():
    return make_grid(50.0, 2048)


def _breather(g, t):
    return breather_eval(Breather(alpha=1.0, beta=1.0), t, g.x)


def _one_step(g, u, dt):
    """One scheme step of size dt from the samples u on g."""
    return np.fft.irfft(_Stepper(g, dt).step(np.fft.rfft(u)), g.n)


def test_pde_residual_soliton(grid):
    assert pde_residual([Soliton(c=1.0)], 0.0, grid) < 1e-7


def test_pde_residual_breather(grid):
    assert pde_residual([Breather(alpha=1.0, beta=1.0)], 0.5, grid) < 1e-7


def test_pde_residual_overlapping_sum_is_large(grid):
    # a sum of co-located objects is not a solution
    res = pde_residual([Soliton(c=1.0), Soliton(c=2.0)], 0.0, grid)
    assert res > 0.1


def _oracle_residual(objects, t, g):
    """pde_residual's sup norm, its space derivatives taken by the oracle."""
    dt = 1e-4

    def u_at(tt):
        return sum(eval_object(o, tt, g.x) for o in objects)

    u_t = (
        u_at(t - 2 * dt) - 8.0 * u_at(t - dt) + 8.0 * u_at(t + dt) - u_at(t + 2 * dt)
    ) / (12.0 * dt)
    u = u_at(t)
    flux = spectral_derivative(g, u, 2) + u * u * u
    return float(np.max(np.abs(u_t + spectral_derivative(g, flux, 1))))


@pytest.mark.parametrize("t", [0.0, 0.7])
@pytest.mark.parametrize(
    "obj",
    [*FLAGSHIP, Breather(1.0, 1.0)],
    ids=["flagship-breather", "flagship-soliton-1", "flagship-soliton-4", "breather-1-1"],
)
def test_pde_residual_has_the_bits_of_the_oracle_derivatives(obj, t):
    # the derivative pair's symbols are the oracle's at orders 1 and 2
    g = make_grid(100.0, 4096)
    assert pde_residual([obj], t, g) == _oracle_residual([obj], t, g)


def test_one_step_breather_accuracy(grid):
    dt = 2.5e-4
    u1 = _one_step(grid, _breather(grid, 0.0), dt)
    err = np.max(np.abs(u1 - _breather(grid, dt)))
    assert err < 1e-9


def test_one_step_breather_accuracy_coarse(grid):
    # at dt=1e-3 a 4th-order exponential integrator lands near 1e-7
    dt = 1e-3
    u1 = _one_step(grid, _breather(grid, 0.0), dt)
    assert np.max(np.abs(u1 - _breather(grid, dt))) < 5e-7


def test_step_convergence_order(grid):
    errs = []
    dts = [2e-3, 1e-3, 5e-4]
    for dt in dts:
        u1 = _one_step(grid, _breather(grid, 0.0), dt)
        errs.append(np.max(np.abs(u1 - _breather(grid, dt))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # one-step error of a 4th-order method decays at roughly 5th order
    assert np.all(orders > 3.5)
    assert np.mean(orders) > 3.9


def test_soliton_short_evolution_tracks_exact(grid):
    u0 = soliton_eval(Soliton(c=1.0), 0.0, grid.x)
    traj = evolve(grid, u0, EvolutionControls(dt=1e-3, t_end=1.0, save_every=1000))
    exact = soliton_eval(Soliton(c=1.0), 1.0, grid.x)
    err = np.sqrt(h2_norm_sq(grid, traj.values[-1] - exact))
    assert err < 1e-7


def test_evolve_snapshot_times(grid):
    u0 = _breather(grid, 0.0)
    # 100 steps; a save_every that does not divide them still saves the last step
    for save_every, times in ((20, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]), (30, [0.0, 0.03, 0.06, 0.09, 0.1])):
        traj = evolve(grid, u0, EvolutionControls(dt=1e-3, t_end=0.1, save_every=save_every))
        np.testing.assert_allclose(traj.times, times)
        assert traj.values.shape == (len(times), grid.n)
        np.testing.assert_array_equal(traj.values[0], u0)
        assert traj.grid is grid


def test_stability_bound_formula(grid):
    u = _breather(grid, 0.0)
    amp = np.max(np.abs(u))
    assert stability_bound(grid, u) == pytest.approx(2.0 / (amp**2 * grid.k_max))
    assert stability_bound(grid, np.zeros(grid.n)) == np.inf


def test_evolve_rejects_unstable_dt(grid):
    u0 = _breather(grid, 0.0)
    with pytest.raises(ValueError, match="safety bound"):
        evolve(grid, u0, EvolutionControls(dt=1.0, t_end=2.0))


def test_evolve_rejects_a_datum_that_is_not_finite_samples_of_its_grid(grid):
    # evolve is where outside data enters: a NaN, an infinity, a wrong length or a
    # second axis is invalid input with a one-line message, before any step
    u0 = _breather(grid, 0.0)
    controls = EvolutionControls(dt=1e-3, t_end=0.01)
    nan, inf = u0.copy(), u0.copy()
    nan[7], inf[7] = np.nan, -np.inf
    bad = {"nan": nan, "inf": inf, "length": u0[:-1], "2-D": np.stack([u0, u0])}
    for name, u in bad.items():
        with pytest.raises(ValueError) as info:
            evolve(grid, u, controls)
        message = str(info.value)
        assert "\n" not in message, name
        assert "u0 must be" in message, name
    assert np.array_equal(evolve(grid, u0, controls).values[0], u0)


def test_controls_validation():
    with pytest.raises(ValueError):
        EvolutionControls(dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionControls(dt=1e-3, t_end=1.0, save_every=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_initial_data_stays_zero(grid):
    # the resolution guard reads the zero datum as resolved, with no 0/0
    traj = evolve(grid, np.zeros(grid.n), EvolutionControls(dt=1e-3, t_end=0.01))
    assert np.max(np.abs(traj.values[-1])) == 0.0


def test_blowup_is_caught_at_its_step(grid, monkeypatch):
    calls = []
    real_step = _Stepper.step

    def step_nan_at_third(self, uh):
        calls.append(None)
        out = real_step(self, uh)
        return out * np.nan if len(calls) == 3 else out

    monkeypatch.setattr(_Stepper, "step", step_nan_at_third)
    dt = 1e-3
    with pytest.raises(BlowUp) as info:
        evolve(grid, _breather(grid, 0.0), EvolutionControls(dt=dt, t_end=0.01, save_every=1000))
    assert info.value.t == pytest.approx(3 * dt)
    assert len(calls) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resolution_guard_at_its_budget(grid):
    # the tail is the largest |uh| at k >= 15/16 k_max over the largest |uh|:
    # at the budget the run goes on, one float above it the run stops with one
    # line, and the zero spectrum counts as resolved, with no 0/0
    check = evolution._check_resolved
    uh = np.zeros(grid.n // 2 + 1, dtype=complex)
    check(uh, 0.0)
    top = 15 * (grid.n // 2) // 16
    uh[3], uh[top - 1] = -2.0, 1.0
    uh[top] = 2.0 * evolution.TAIL_BUDGET
    check(uh, 0.5)
    uh[-1] = 1j * np.nextafter(2.0 * evolution.TAIL_BUDGET, 1.0)
    with pytest.raises(Unresolved) as info:
        check(uh, 0.5)
    assert str(info.value) == (
        "unresolved at t=0.5: the top sixteenth of the spectrum is 1.00e-08 of its peak "
        "at n=2048, above the budget 1e-08"
    )
    assert info.value.exit_code == 3


def test_resolution_guard_stops_at_the_first_save_past_the_budget(grid, monkeypatch):
    # a top mode that appears at step 3 stops the run at the save of step 4
    calls = []
    real_step = _Stepper.step

    def step_with_a_top_mode_at_third(self, uh):
        calls.append(None)
        out = real_step(self, uh)
        if len(calls) == 3:
            out[-2] = 1e-6 * np.max(np.abs(out))
        return out

    monkeypatch.setattr(_Stepper, "step", step_with_a_top_mode_at_third)
    dt = 1e-3
    with pytest.raises(Unresolved, match=r"^unresolved at t=0\.004: .* 1\.00e-06 .* n=2048,"):
        evolve(grid, _breather(grid, 0.0), EvolutionControls(dt=dt, t_end=0.01, save_every=2))
    assert len(calls) == 4


def _reference_krogstad_step(g, dt, uh):
    """Krogstad ETDRK4 in its plain form: h outside the sums, -ik and u**3 at every stage."""
    n = g.n
    ik = 1j * g.wavenumbers
    ik[-1] = 0.0
    L = 1j * g.wavenumbers**3
    E, E2 = np.exp(dt * L), np.exp(dt * L / 2.0)
    p1h, p2h, _ = _phi_functions(dt * L / 2.0)
    p1, p2, p3 = _phi_functions(dt * L)

    def nonlinear(vh):
        return -ik * np.fft.rfft(np.fft.irfft(vh, n) ** 3)

    n1 = nonlinear(uh)
    n2 = nonlinear(E2 * uh + dt * (0.5 * p1h) * n1)
    n3 = nonlinear(E2 * uh + dt * ((0.5 * p1h - p2h) * n1 + p2h * n2))
    n4 = nonlinear(E * uh + dt * ((p1 - 2.0 * p2) * n1 + 2.0 * p2 * n3))
    return E * uh + dt * (
        (p1 - 3.0 * p2 + 4.0 * p3) * n1
        + (2.0 * p2 - 4.0 * p3) * n2
        + (2.0 * p2 - 4.0 * p3) * n3
        + (-p2 + 4.0 * p3) * n4
    )


def test_stepper_matches_reference_krogstad_step():
    g = make_grid(50.0, 512)
    dt = 1e-3
    ref = fast = np.fft.rfft(_breather(g, 0.0))
    stepper = _Stepper(g, dt)
    for _ in range(10):
        ref = _reference_krogstad_step(g, dt, ref)
        fast = stepper.step(fast)
    u_ref, u_fast = np.fft.irfft(ref, g.n), np.fft.irfft(fast, g.n)
    assert np.max(np.abs(u_fast - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))


def _phi_functions_at_once(z):
    """_phi_functions with every point in one (len(z), 64) block."""
    r = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    zr = z[:, None] + r[None, :]
    ez = np.exp(zr)
    p1 = np.mean((ez - 1.0) / zr, axis=1)
    p2 = np.mean((ez - 1.0 - zr) / zr**2, axis=1)
    p3 = np.mean((ez - 1.0 - zr - zr**2 / 2.0) / zr**3, axis=1)
    return p1, p2, p3


@pytest.mark.parametrize("n", [1024, 4096])
def test_blocked_phi_functions_keep_the_coefficient_bits(n, monkeypatch):
    # each point's contour mean is reduced on its own, so building the
    # phi-functions by blocks of points moves no bit of the eight stored coefficients
    g = make_grid(100.0, n)
    names = ("a21", "a31", "a32", "a41", "a43", "b1", "b2", "b4")
    for dt in (5e-4, 1e-3, 2e-3):
        blocked = _Stepper(g, dt)
        with monkeypatch.context() as m:
            m.setattr(evolution, "_phi_functions", _phi_functions_at_once)
            ref = _Stepper(g, dt)
        for name in names:
            assert np.array_equal(getattr(blocked, name), getattr(ref, name)), name


def test_stepper_step_is_pure(grid):
    stepper = _Stepper(grid, 1e-3)
    uh = np.fft.rfft(_breather(grid, 0.0))
    before = uh.copy()
    first = stepper.step(uh)
    kept = first.copy()
    np.testing.assert_array_equal(uh, before)
    second = stepper.step(uh)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(first, second)
    # the step's result is its own array: no work buffer the next step reuses
    buffers = [a for a in vars(stepper).values() if isinstance(a, np.ndarray)]
    assert buffers
    for result in (first, second):
        assert not any(np.shares_memory(result, a) for a in buffers)


@pytest.mark.parametrize("n", [16, 512, 4096])
def test_cube_on_the_shifted_grids_matches_the_padded_cube(n):
    # the padded cube samples u on the grid and its half-shifted copy; the
    # stepper's cube on the grid alone matches it on random spectra whose modes
    # stop at k = n/6, since their cube then has no mode past the Nyquist one
    g = make_grid(50.0, n)
    stepper = _Stepper(g, 1e-3)
    rng = np.random.default_rng(n)
    band = n // 6 + 1
    for _ in range(3):
        uh = np.zeros(n // 2 + 1, dtype=complex)
        uh[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        ref = padded_cube_hat(uh, n)
        assert np.max(np.abs(ref[band:])) > 1e-3 * np.max(np.abs(ref))
        got = stepper._cube_hat(uh, np.empty_like(uh))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cube_on_a_resolved_grid_is_the_dealiased_cube():
    # the breather's spectrum at n = 4096 falls to round-off well before the
    # Nyquist mode, so the unpadded cube aliases nothing that shows
    g = make_grid(100.0, 4096)
    uh = np.fft.rfft(_breather(g, 0.0))
    ref = padded_cube_hat(uh, g.n)
    got = _Stepper(g, 1e-3)._cube_hat(uh, np.empty_like(uh))
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _top_over_peak(a):
    return a[15 * (len(a) - 1) // 16 :].max() / a.max()


def test_cube_on_an_unresolved_grid_aliases_the_size_of_its_tail():
    # the flagship's datum at n = 1024, refused by the guard: u's top sixteenth
    # reads 3.2e-5 of its peak and the cube's own 1.9e-3, since the cube's
    # spectrum decays at u's rate times a power of k.  Aliasing folds the
    # cube's modes past the Nyquist mode back, so the unpadded cube differs
    # from the dealiased one by 9.6e-4 of its peak: between the two tails
    g = make_grid(100.0, 1024)
    uh = np.fft.rfft(sum(eval_object(o, 0.0, g.x) for o in FLAGSHIP))
    ref = padded_cube_hat(uh, g.n)
    got = _Stepper(g, 1e-3)._cube_hat(uh, np.empty_like(uh))
    tail, cube_tail = _top_over_peak(np.abs(uh)), _top_over_peak(np.abs(ref))
    assert tail > evolution.TAIL_BUDGET
    assert tail < np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= cube_tail


def test_densities_match_power_forms(grid):
    v = _breather(grid, 0.3)
    ux = np.gradient(v, grid.h)
    uxx = np.gradient(ux, grid.h)
    e = 0.5 * ux**2 - 0.25 * v**4
    f = 0.5 * uxx**2 - 2.5 * v**2 * ux**2 + 0.25 * v**6
    assert np.max(np.abs(_energy_density(v, ux) - e)) <= 1e-14 * np.max(np.abs(e))
    assert np.max(np.abs(_second_energy_density(v, ux, uxx) - f)) <= 1e-14 * np.max(np.abs(f))
