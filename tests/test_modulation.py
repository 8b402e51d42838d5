"""Translation-offset fitting: directions, Newton solve, tracking."""

import numpy as np
import pytest

from mkdvlab import profiles
from mkdvlab.errors import NoConvergence
from mkdvlab.evolution import EvolutionControls, evolve
from mkdvlab.grid import h2_norm_sq, integrate, make_field, make_grid, spectral_derivative
from mkdvlab.modulation import (
    fit_translations,
    modulation_directions,
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
    bf = make_field(grid, breather_eval(b, 0.0, grid.x))
    bx = spectral_derivative(bf, 1).values
    np.testing.assert_allclose(dirs[0] + dirs[1], bx, atol=1e-8)


def test_breather_directions_linearly_independent(grid):
    b = Breather(alpha=1.0, beta=1.0)
    dirs = modulation_directions(b, (), 0.0, grid)
    G = np.array([[integrate(grid, di * dj) for dj in dirs] for di in dirs])
    assert np.linalg.cond(G) < 1e6


def test_fit_exact_profile_converges_immediately(grid):
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid)
    st = fit_translations(u, cfg, 0.0)
    assert st.iterations <= 1
    np.testing.assert_allclose(st.flat_offsets(), 0.0, atol=1e-10)
    assert np.max(np.abs(st.w.values)) < 1e-10
    assert np.max(np.abs(st.ortho_residuals)) < 1e-12


def test_round_trip_recovers_injected_offsets(grid):
    cfg = _pair_cfg()
    injected = [(-0.03, 0.05), (0.07,)]
    u = profile_sum(cfg, 0.0, grid, shifts=injected)
    st = fit_translations(u, cfg, 0.0)
    np.testing.assert_allclose(st.flat_offsets(), [-0.03, 0.05, 0.07], atol=1e-8)


def test_fit_evaluates_each_breather_once_per_newton_step(grid, monkeypatch):
    # the residual, the directions and the Jacobian come from one evaluation
    calls = []
    quotient = profiles._breather_quotient

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    monkeypatch.setattr(profiles, "_breather_quotient", counted)
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid, shifts=[(0.02, -0.01), (0.03,)])
    calls.clear()
    st = fit_translations(u, cfg, 0.0)
    assert st.iterations >= 2
    assert len(calls) == st.iterations + 1


def test_fit_far_field_raises(grid):
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid)
    bump = 10.0 * np.exp(-((grid.x - 20.0) ** 2))
    far = make_field(grid, u.values + bump)
    with pytest.raises(NoConvergence):
        fit_translations(far, cfg, 0.0)


def test_fit_zero_field_fails(grid):
    cfg = _pair_cfg()
    zero = make_field(grid, np.zeros(grid.n))
    with pytest.raises(NoConvergence):
        fit_translations(zero, cfg, 0.0)


def test_converged_root_is_locally_isolated(grid):
    cfg = _pair_cfg()
    u = profile_sum(cfg, 0.0, grid, shifts=[(0.02, -0.01), (0.03,)])
    st = fit_translations(u, cfg, 0.0)
    base = float(np.sum(st.ortho_residuals**2))

    from mkdvlab.profiles import eval_object

    def residual_sq(y):
        offs = split_offsets(cfg, y)
        p = sum(eval_object(o, 0.0, grid.x, sh) for o, sh in zip(cfg.objects, offs))
        w = u.values - p
        dirs = [
            d for o, sh in zip(cfg.objects, offs) for d in modulation_directions(o, sh, 0.0, grid)
        ]
        return sum(integrate(grid, d * w) ** 2 for d in dirs)

    y0 = st.flat_offsets()
    for k in range(len(y0)):
        for sgn in (+1, -1):
            y = y0.copy()
            y[k] += sgn * 1e-3
            assert residual_sq(y) > base + 1e-12


def test_track_modulation_exact_breather():
    g = make_grid(100.0, 2048)
    cfg = order_and_validate([Breather(1.0, 1.0)])
    u0 = make_field(g, breather_eval(cfg.objects[0], 0.0, g.x))
    traj = evolve(u0, EvolutionControls(dt=1e-3, t_end=2.0, save_every=500))
    track = track_modulation(traj, cfg)
    T = len(traj.times)
    assert track.offsets.shape == track.ortho_residuals.shape == (T, 2)
    assert track.w.shape == (T, g.n) and track.w_h2.shape == (T,)
    # offsets on an exact solution only reflect solver error
    assert np.max(np.abs(track.offsets)) < 1e-6
    for w, w_h2 in zip(track.w, track.w_h2):
        assert w_h2 == np.sqrt(h2_norm_sq(make_field(g, w)))
