"""Translation-offset fitting: directions, Newton solve, tracking."""

import numpy as np
import pytest

from mkdvlab import profiles
from mkdvlab.errors import NoConvergence
from mkdvlab.evolution import EvolutionControls, evolve
from mkdvlab.grid import integrate, make_grid
from mkdvlab.modulation import (
    fit_translations,
    split_offsets,
    total_offsets,
    track_modulation,
)
from mkdvlab.profiles import (
    Breather,
    Soliton,
    breather_eval,
    order_and_validate,
    profile_sum,
    q_prime,
)
from oracles import (
    full_grid_fit,
    h2_norm_sq,
    modulation_directions,
    shifted_profile_sum,
    spectral_derivative,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(100.0, 2048)


def _pair_cfg():
    return order_and_validate([Breather(1.0, 1.0, x2=40.0), Soliton(1.0, x0=20.0)])


def test_offset_bookkeeping():
    cfg = _pair_cfg()
    assert total_offsets(cfg) == 3
    parts = split_offsets(cfg, np.array([1.0, 2.0, 3.0]))
    assert parts == [(1.0, 2.0), (3.0,)]
    with pytest.raises(ValueError):
        split_offsets(cfg, np.array([1.0, 2.0]))


def test_soliton_direction_is_q_prime(grid):
    s = Soliton(c=1.0)
    dirs = modulation_directions(s, (), 0.0, grid)
    assert dirs.shape == (1, grid.n)
    np.testing.assert_allclose(dirs[0], q_prime(1.0, grid.x))


def test_breather_directions_sum_to_x_derivative(grid):
    b = Breather(alpha=1.0, beta=1.0)
    dirs = modulation_directions(b, (), 0.0, grid)
    assert dirs.shape == (2, grid.n)
    bx = spectral_derivative(grid, breather_eval(b, 0.0, grid.x), 1)
    np.testing.assert_allclose(dirs[0] + dirs[1], bx, atol=1e-8)


def test_breather_directions_linearly_independent(grid):
    b = Breather(alpha=1.0, beta=1.0)
    dirs = modulation_directions(b, (), 0.0, grid)
    G = np.array([[integrate(grid, di * dj) for dj in dirs] for di in dirs])
    assert np.linalg.cond(G) < 1e6


def test_fit_exact_profile_converges_immediately(grid):
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid)
    st = fit_translations(grid, u, cfg, 0.0)
    assert st.iterations <= 1
    np.testing.assert_allclose(st.offsets, 0.0, atol=1e-10)
    assert np.max(np.abs(st.w)) < 1e-10
    assert np.max(np.abs(st.ortho_residuals)) < 1e-12


def test_round_trip_recovers_injected_offsets(grid):
    cfg = _pair_cfg()
    injected = [(-0.03, 0.05), (0.07,)]
    u = shifted_profile_sum(cfg, 0.0, grid, injected)
    st = fit_translations(grid, u, cfg, 0.0)
    np.testing.assert_allclose(st.offsets, [-0.03, 0.05, 0.07], atol=1e-8)


def test_fit_evaluates_each_breather_once_per_newton_step(grid, monkeypatch):
    # the residual, the directions and the Jacobian come from one evaluation
    calls = []
    quotient = profiles._breather_quotient

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    monkeypatch.setattr(profiles, "_breather_quotient", counted)
    cfg = _pair_cfg()
    u = shifted_profile_sum(cfg, 0.0, grid, [(0.02, -0.01), (0.03,)])
    calls.clear()
    st = fit_translations(grid, u, cfg, 0.0)
    assert st.iterations >= 2
    assert len(calls) == st.iterations + 1


def test_fit_far_field_raises(grid):
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid)
    bump = 10.0 * np.exp(-((grid.x - 20.0) ** 2))
    with pytest.raises(NoConvergence):
        fit_translations(grid, u + bump, cfg, 0.0)


def test_fit_zero_field_fails(grid):
    cfg = _pair_cfg()
    with pytest.raises(NoConvergence):
        fit_translations(grid, np.zeros(grid.n), cfg, 0.0)


def test_converged_root_is_locally_isolated(grid):
    cfg = _pair_cfg()
    u = shifted_profile_sum(cfg, 0.0, grid, [(0.02, -0.01), (0.03,)])
    st = fit_translations(grid, u, cfg, 0.0)
    base = float(np.sum(st.ortho_residuals**2))

    def residual_sq(y):
        offs = split_offsets(cfg, y)
        w = u - shifted_profile_sum(cfg, 0.0, grid, offs)
        dirs = [
            d for o, sh in zip(cfg.objects, offs) for d in modulation_directions(o, sh, 0.0, grid)
        ]
        return sum(integrate(grid, d * w) ** 2 for d in dirs)

    y0 = st.offsets
    for k in range(len(y0)):
        for sgn in (+1, -1):
            y = y0.copy()
            y[k] += sgn * 1e-3
            assert residual_sq(y) > base + 1e-12


def test_track_modulation_exact_breather():
    g = make_grid(100.0, 2048)
    cfg = order_and_validate([Breather(1.0, 1.0)])
    u0 = breather_eval(cfg.objects[0], 0.0, g.x)
    traj = evolve(g, u0, EvolutionControls(dt=1e-3, t_end=2.0, save_every=500))
    # a lone object has no cutoff family, so the pass measures no rate-fit series
    track = track_modulation(traj, cfg, None)
    T = len(traj.times)
    assert track.offsets.shape == track.ortho_residuals.shape == (T, 2)
    assert track.w_h2.shape == (T,)
    assert track.windowed is None and track.scalar is None and track.quadratic is None
    # offsets on an exact solution only reflect solver error
    assert np.max(np.abs(track.offsets)) < 1e-6
    for t, row, y, w_h2 in zip(traj.times, traj.values, track.offsets, track.w_h2):
        # a fit from the stored root takes no step and rebuilds the tracked residual
        st = fit_translations(g, row, cfg, t, guess=y)
        assert st.iterations == 0 and st.w_h2 == w_h2
        assert w_h2 == np.sqrt(h2_norm_sq(g, st.w))
        # the windowed residual keeps the profile's tails beyond the window,
        # below 1e-17 of the envelope's peak, and the second derivative of that
        # cut amplifies them: measured 5.4e-15 at t = 0, where the full-grid
        # residual is exactly zero, and at most 2.0e-16 later; a margin of 9
        w = row - shifted_profile_sum(cfg, t, g, split_offsets(cfg, y))
        assert abs(w_h2 - np.sqrt(h2_norm_sq(g, w))) < 5e-14


def test_window_covering_the_box_reproduces_the_full_grid_fit():
    # a wide soliton (c = 0.04: the window's half-width is 17 ln 10 / 0.2 = 196)
    # on a box of half-length 60: every evaluation covers every node, so the
    # windowed fit must make the full-grid fit's iterations with the same bits
    g = make_grid(60.0, 256)
    cfg = order_and_validate([Soliton(c=0.04, x0=3.0)])
    u = shifted_profile_sum(cfg, 0.0, g, [(0.3,)]) + 1e-4 * np.exp(-((g.x - 8.0) ** 2))
    st, ref = fit_translations(g, u, cfg, 0.0), full_grid_fit(g, u, cfg, 0.0)
    assert st.windows == ref.windows == [slice(0, g.n)]
    assert st.iterations == ref.iterations >= 2
    assert st.w_h2 == ref.w_h2
    for got, want in [
        (st.offsets, ref.offsets),
        (st.ortho_residuals, ref.ortho_residuals),
        (st.w, ref.w),
        *zip(st.w_pair, ref.w_pair),
        *zip(st.profiles, ref.profiles),
    ]:
        assert np.array_equal(got, want)
