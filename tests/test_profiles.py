"""Closed-form profiles: values, derivatives, ordering, envelopes, sums."""

from dataclasses import replace

import numpy as np
import pytest

from mkdvlab.errors import DuplicateVelocity, TailsTooLarge
from mkdvlab.grid import make_grid
from mkdvlab.profiles import (
    Breather,
    Soliton,
    _breather_partials,
    _offset_partials,
    breather_eval,
    center,
    check_tails,
    decay_envelope,
    eval_object,
    order_and_validate,
    profile_sum,
    q_profile,
    shape_pair,
    soliton_eval,
    velocity,
)
from oracles import spectral_derivative


def test_soliton_peak_value():
    assert q_profile(1.0, 0.0) == pytest.approx(np.sqrt(2.0))
    assert q_profile(4.0, 0.0) == pytest.approx(np.sqrt(8.0))


def test_soliton_validation():
    with pytest.raises(ValueError):
        Soliton(c=-1.0)
    with pytest.raises(ValueError):
        Soliton(c=1.0, kappa=2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Soliton(c=bad)
        with pytest.raises(ValueError):
            Soliton(c=1.0, x0=bad)


def test_breather_validation():
    with pytest.raises(ValueError):
        Breather(alpha=-1.0, beta=1.0)
    nan, inf = float("nan"), float("inf")
    for fields in ((inf, 1.0), (1.0, nan), (1.0, 1.0, nan), (1.0, 1.0, 0.0, -inf)):
        with pytest.raises(ValueError):
            Breather(*fields)


def test_soliton_translation_and_sign():
    g = make_grid(30.0, 256)
    s = Soliton(c=2.0, kappa=-1, x0=3.0)
    vals = soliton_eval(s, t=1.5, x=g.x)
    peak = g.x[np.argmin(vals)]  # kappa=-1 flips the sign
    assert peak == pytest.approx(3.0 + 2.0 * 1.5, abs=g.h)
    # the grid node may miss the exact crest by up to h/2
    assert np.min(vals) == pytest.approx(-2.0, abs=2.0 * g.h**2)


def test_breather_matches_arctan_derivative():
    # the quotient form must equal the x-derivative of the arctan potential
    g = make_grid(40.0, 1024)
    b = Breather(alpha=0.8, beta=1.3, x1=0.4, x2=-0.7)
    t = 0.9
    y1 = g.x + b.delta * t + b.x1
    y2 = g.x + b.gamma * t + b.x2
    potential = 2.0 * np.sqrt(2.0) * np.arctan(
        (b.beta / b.alpha) * np.sin(b.alpha * y1) / np.cosh(b.beta * y2)
    )
    dpot = spectral_derivative(g, potential, 1)
    np.testing.assert_allclose(breather_eval(b, t, g.x), dpot, atol=1e-8)


def test_breather_phase_partials_match_finite_differences():
    b = Breather(alpha=1.1, beta=0.9, x1=0.2, x2=-0.3)
    x = np.linspace(-10, 10, 64)
    t = 0.5
    eps = 1e-6

    def value(s1, s2):
        return _breather_partials(b, t, x, s1, s2)[0]

    fd1 = (value(eps, 0.0) - value(-eps, 0.0)) / (2 * eps)
    fd2 = (value(0.0, eps) - value(0.0, -eps)) / (2 * eps)
    d1, d2 = _breather_partials(b, t, x, 0.0, 0.0)[1:3]
    np.testing.assert_allclose(d1, fd1, atol=1e-8)
    np.testing.assert_allclose(d2, fd2, atol=1e-8)


def test_breather_second_partials_match_finite_differences():
    b = Breather(alpha=1.0, beta=1.0)
    x = np.linspace(-8, 8, 48)
    t = 0.2
    eps = 1e-5
    (d11, d12), (_, d22) = _breather_partials(b, t, x, 0.0, 0.0)[3]()

    def first(s1, s2):
        return _breather_partials(b, t, x, s1, s2)[1:3]

    fd11 = (first(eps, 0)[0] - first(-eps, 0)[0]) / (2 * eps)
    fd12 = (first(0, eps)[0] - first(0, -eps)[0]) / (2 * eps)
    fd22 = (first(0, eps)[1] - first(0, -eps)[1]) / (2 * eps)
    np.testing.assert_allclose(d11, fd11, atol=1e-7)
    np.testing.assert_allclose(d12, fd12, atol=1e-7)
    np.testing.assert_allclose(d22, fd22, atol=1e-7)


def test_breather_chain_rule_identity():
    # x enters both phases identically, so d1 + d2 equals the x-derivative
    g = make_grid(40.0, 1024)
    b = Breather(alpha=1.0, beta=1.0)
    t = 1.3
    bx = spectral_derivative(g, breather_eval(b, t, g.x), 1)
    d1, d2 = _breather_partials(b, t, g.x, 0.0, 0.0)[1:3]
    np.testing.assert_allclose(d1 + d2, bx, atol=1e-8)


@pytest.mark.parametrize(
    "obj,shifts",
    [(Soliton(4.0, kappa=-1, x0=3.0), (0.0,)), (Breather(1.1, 0.9, x1=0.3, x2=-2.0), (0.0, 0.0))],
    ids=["soliton", "breather"],
)
def test_offset_partials_value_is_eval_object_bitwise(obj, shifts):
    # the modulation residual is built from this value, so at zero offsets it
    # must carry the exact bits of the profile that eval_object and profile_sum
    # produce
    x = make_grid(40.0, 512).x
    value, dirs, hess = _offset_partials(obj, shifts, 0.7, x)
    assert np.array_equal(value, eval_object(obj, 0.7, x))
    assert len(dirs) == len(hess()) == len(shifts)


def test_breather_no_overflow_far_away():
    b = Breather(alpha=1.0, beta=1.0)
    vals = breather_eval(b, 0.0, np.array([-1e4, -500.0, 500.0, 1e4]))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1e-40


@pytest.mark.parametrize(
    "obj,v",
    [
        (Soliton(c=2.5), 2.5),
        (Breather(alpha=1.0, beta=1.0), -2.0),
        (Breather(alpha=0.5, beta=2.0), 4.0 - 0.75),
    ],
)
def test_velocity(obj, v):
    assert velocity(obj) == pytest.approx(v)


def test_standing_breather_has_speed_positive_zero():
    # beta^2 = 3 alpha^2 holds exactly in floats here, so gamma is +0.0; -gamma
    # would be -0.0, which resolved-config.json writes as "-0.0"
    b = Breather(alpha=0.75, beta=1.299038105676658)
    assert b.gamma == 0.0
    assert np.copysign(1.0, velocity(b)) == 1.0 and np.copysign(1.0, -b.gamma) == -1.0


def test_shape_pair():
    assert shape_pair(Soliton(c=4.0)) == pytest.approx((0.0, 2.0))
    assert shape_pair(Breather(alpha=1.2, beta=0.7)) == (1.2, 0.7)


def test_center_tracks_motion():
    s = Soliton(c=3.0, x0=1.0)
    assert center(s, 2.0) == pytest.approx(7.0)
    b = Breather(alpha=1.0, beta=1.0, x2=5.0)
    # the envelope argument is y2 = x + gamma t + x2, so the center moves at -gamma
    assert center(b, 1.0) == pytest.approx(-5.0 - b.gamma)


@pytest.mark.parametrize(
    "obj", [Soliton(c=1.0), Soliton(c=4.0), Breather(alpha=1.0, beta=1.0)]
)
def test_envelope_dominates_profile(obj):
    x = np.linspace(-60, 60, 2001)
    for t in (0.0, 1.0, 3.0):
        assert np.all(np.abs(eval_object(obj, t, x)) <= decay_envelope(obj, t, x) + 1e-14)


def test_order_and_validate_sorts_by_velocity():
    cfg = order_and_validate(
        [Soliton(c=4.0), Breather(alpha=1.0, beta=1.0), Soliton(c=1.0)]
    )
    assert cfg.velocities == pytest.approx((-2.0, 1.0, 4.0))
    assert isinstance(cfg.objects[0], Breather)
    assert cfg.positive_v2 and not cfg.positive_v1
    assert cfg.J == 3


def test_velocities_and_flags_follow_the_objects():
    cfg = order_and_validate(
        [Soliton(c=4.0), Breather(alpha=1.0, beta=1.0), Soliton(c=1.0)]
    )
    rest = replace(cfg, objects=cfg.objects[1:])
    assert rest.velocities == (1.0, 4.0)
    assert rest.positive_v1 and rest.positive_v2
    assert not replace(cfg, objects=cfg.objects[:1]).positive_v2


def test_order_and_validate_duplicate():
    with pytest.raises(DuplicateVelocity):
        order_and_validate([Soliton(c=1.0), Soliton(c=1.0, x0=10.0)])


def test_order_and_validate_rejects_adjacent_velocities():
    # one ulp apart, the midpoint of the two velocities rounds to one of them
    near = float(np.nextafter(1.0, 2.0))
    with pytest.raises(DuplicateVelocity, match=f"velocities 1.0 and {near} "):
        order_and_validate([Soliton(c=near), Soliton(c=1.0, x0=10.0)])
    two_ulps = float(np.nextafter(near, 2.0))
    assert order_and_validate([Soliton(c=1.0), Soliton(c=two_ulps)]).velocities == (1.0, two_ulps)


def test_order_and_validate_single_object_flags():
    # a lone object has no second velocity, whatever the sign of its own
    soliton = order_and_validate([Soliton(c=1.0)])
    assert soliton.positive_v1 and not soliton.positive_v2
    breather = order_and_validate([Breather(alpha=1.0, beta=1.0)])
    assert not breather.positive_v1 and not breather.positive_v2


def test_check_tails():
    cfg = order_and_validate([Soliton(c=1.0)])
    check_tails(cfg, 0.0, make_grid(60.0, 256))
    with pytest.raises(TailsTooLarge):
        check_tails(cfg, 0.0, make_grid(10.0, 256))
    with pytest.raises(TailsTooLarge):
        # the soliton reaches the boundary after moving for long enough
        check_tails(cfg, 50.0, make_grid(60.0, 256))


def test_profile_sum_adds_objects():
    g = make_grid(80.0, 1024)
    cfg = order_and_validate([Soliton(c=1.0, x0=-30.0), Soliton(c=2.0, x0=30.0)])
    u = profile_sum(cfg, 0.0, g)
    expected = soliton_eval(Soliton(c=1.0, x0=-30.0), 0.0, g.x) + soliton_eval(
        Soliton(c=2.0, x0=30.0), 0.0, g.x
    )
    np.testing.assert_allclose(u, expected)
