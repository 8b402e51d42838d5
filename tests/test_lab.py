"""Scenario parsing, experiment drivers, rate fitting, persistence, CLI."""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdvlab import cli, evolution, functionals, grid, lab, lyapunov, modulation, profiles
from mkdvlab.cli import main
from mkdvlab.errors import (
    BlowUp,
    DuplicateVelocity,
    EigensolveFailure,
    HypothesisViolated,
    NoConvergence,
    NonPositiveDistance,
    SingularJacobian,
    Unresolved,
)
from mkdvlab.lab import (
    EXPERIMENT_KINDS,
    ExperimentReport,
    fit_exponential_rate,
    localized_bump,
    parse_scenario,
    resolved_config,
    run_experiment,
    write_report,
)
from mkdvlab.evolution import EvolutionControls, stability_bound
from mkdvlab.grid import Grid, integrate, make_grid
from mkdvlab.profiles import (
    Breather,
    Soliton,
    center,
    decay_envelope,
    order_and_validate,
    profile_sum,
)
from oracles import (
    full_grid_fit,
    h2_norm_sq,
    modulation_directions,
    shifted_profile_sum,
    spectral_derivative,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios", "")

MINIMAL = """
name: minimal
objects:
  - {kind: soliton, c: 1.0}
grid: {half_length: 60.0, n: 1024}
evolution: {dt: 1.0e-3, t_end: 0.1}
"""

FLAGSHIP = """
name: flagship
objects:
  - {kind: breather, alpha: 1.0, beta: 1.0, x2: 60.0}
  - {kind: soliton, c: 1.0}
  - {kind: soliton, c: 4.0, x0: 60.0}
grid: {half_length: 100.0, n: 4096}
evolution: {dt: 5.0e-4, t_end: 8.0, save_every: 400}
sigma: 0.01
seed: 7
"""


def test_parse_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.cfg.J == 1
    assert s.grid.n == 1024
    assert s.sigma == 0.01  # default
    assert s.controls.dt == 1e-3


def test_parse_flagship_resolved_config():
    s = parse_scenario(FLAGSHIP)
    rc = resolved_config(s)
    assert rc["speeds"] == pytest.approx([0.5, 2.5])
    assert rc["nu1"] == pytest.approx(0.5)
    assert rc["velocities"] == pytest.approx([-2.0, 1.0, 4.0])
    # every constant the analysis consumes is present
    for key in ("sigma_effective", "varpi_hat", "C_hat", "tau0"):
        assert key in rc


def test_parse_rejects_duplicate_velocities():
    doc = MINIMAL.replace(
        "- {kind: soliton, c: 1.0}",
        "- {kind: soliton, c: 1.0}\n  - {kind: soliton, c: 1.0, x0: 20.0}",
    )
    with pytest.raises(DuplicateVelocity):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "mutation",
    [
        ("name: minimal", ""),  # missing required field
        ("kind: soliton", "kind: vortex"),  # unknown kind
        ("c: 1.0", "q: 1.0"),  # unknown/missing object field
        ("n: 1024", "n: 1000"),  # not a power of two
        ("{kind: soliton, c: 1.0}", "5"),  # object entry is not a mapping
        ("{kind: soliton, c: 1.0}", "[1]"),
        ("t_end: 0.1}", "t_end: 0.1}\nsigmaa: 3"),  # misspelt top-level key
        ("n: 1024}", "n: 1024, nn: 4}"),  # misspelt grid key
        ("t_end: 0.1}", "t_end: 0.1, save_evry: 10}"),  # misspelt evolution key
        ("t_end: 0.1}", "t_end: 0.1, dealias: true}"),  # removed evolution key
        ("t_end: 0.1}", "t_end: 0.1}\noutput_dir: out"),  # removed top-level key
        ("grid: {half_length: 60.0, n: 1024}", "grid: [60.0, 1024]"),  # grid is not a mapping
    ],
)
def test_parse_schema_violations(mutation):
    old, new = mutation
    with pytest.raises((ValueError, KeyError)):
        parse_scenario(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "mutation",
    [
        ("t_end: 0.1", "t_end: 0"),
        ("t_end: 0.1", "t_end: -1"),
        ("t_end: 0.1", "t_end: .inf"),
        ("t_end: 0.1", "t_end: .nan"),
        ("dt: 1.0e-3", "dt: .inf"),
        ("dt: 1.0e-3", "dt: .nan"),
        ("{dt: 1.0e-3, t_end: 0.1}", "{dt: 4.0e-4, t_end: 1.0e-3}"),  # stops short of t_end
        ("t_end: 0.1}", "t_end: 0.1}\nsigma: 0"),
        ("t_end: 0.1}", "t_end: 0.1}\nsigma: -1.0"),
    ],
)
def test_parse_rejects_bad_controls(mutation):
    old, new = mutation
    with pytest.raises(ValueError):
        parse_scenario(MINIMAL.replace(old, new))


def _readme_scenario() -> str:
    with open(os.path.join(SCENARIOS, "..", "README.md")) as f:
        section = f.read().split("## Scenario schema", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    # the block runs as written, 21 snapshots; the rebuilt residual must be the tracked fit's
    with open(os.path.join(SCENARIOS, "..", "README.md")) as f:
        section = f.read().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(code, ns)
    traj, track, i = ns["traj"], ns["track"], ns["i"]
    assert len(traj.times) == 21 and track.w_h2.shape == (21,)
    assert traj.times[i] == 0.1
    assert np.sqrt(h2_norm_sq(ns["g"], ns["w"])) == track.w_h2[i]


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".yaml")) + ["README.md"]
)
def test_shipped_scenarios_parse(name):
    # the shipped files and the documented schema stay inside the closed schema
    if name == "README.md":
        text = _readme_scenario()
    else:
        with open(SCENARIOS + name) as f:
            text = f.read()
    parse_scenario(text)


# every optional key left out, of the objects of both kinds and of the scenario
BARE = """
name: bare
objects:
  - {kind: breather, alpha: 1.0, beta: 1.0}
  - {kind: soliton, c: 1.0}
grid: {half_length: 60.0, n: 1024}
evolution: {dt: 1.0e-3, t_end: 0.1}
"""


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".yaml")) + ["bare"]
)
def test_resolved_config_parses_back_to_its_scenario(name):
    # the schema sections of resolved-config.json, defaults written out, are a
    # scenario of their own that parses to the same objects, grid and controls
    if name == "bare":
        text = BARE
    else:
        with open(SCENARIOS + name) as f:
            text = f.read()
    s = parse_scenario(text)
    record = json.loads(s.config_text)
    keys = ("name", "objects", "grid", "evolution", "sigma", "seed")
    back = parse_scenario(yaml.safe_dump({k: record[k] for k in keys}))
    assert (back.cfg, back.grid, back.controls) == (s.cfg, s.grid, s.controls)
    assert (back.sigma, back.seed) == (s.sigma, s.seed)


# both caps bind: b1^2 - a1^2 < 0 shrinks sigma = 100 to 0.9 times its cap, and the
# quadratic tuning constraint puts m1 far below the midpoint of (0, v2)
BOTH_CAPS = """
name: both-caps
objects:
  - {kind: breather, alpha: 2.0, beta: 0.1, x2: 40.0}
  - {kind: soliton, c: 1.0}
grid: {half_length: 300.0, n: 1024}
evolution: {dt: 1.0e-3, t_end: 0.1}
sigma: 100.0
"""


@pytest.mark.parametrize("name", ["flagship", "single-soliton", "single-breather", "both-caps"])
def test_resolved_config_text_is_pinned(name):
    # every derived constant, bit for bit, against the record kept in tests/golden
    if name == "both-caps":
        text = BOTH_CAPS
    else:
        with open(SCENARIOS + name + ".yaml") as f:
            text = f.read()
    with open(os.path.join(os.path.dirname(__file__), "golden", name + ".json")) as f:
        assert parse_scenario(text).config_text == f.read()


@pytest.mark.parametrize("cls", [Soliton, Breather, Grid, EvolutionControls])
def test_every_schema_field_has_a_reader(cls):
    # a scenario section is read off its dataclass's fields by annotation, so a
    # field whose annotation has no reader would fail on the first scenario
    assert all(f.type in lab._READERS for f in fields(cls))


def test_fit_exponential_rate_exact():
    t = np.linspace(0, 10, 50)
    d = 3.0 * np.exp(-0.7 * t)
    fit = fit_exponential_rate(t, d, (0.0, 10.0))
    assert fit.varpi == pytest.approx(0.7, abs=1e-10)
    assert fit.C == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.samples == 50
    # two samples fix the line, so r^2 is 1 whatever they are: the count tells
    two = fit_exponential_rate(t, np.exp(t), (9.7, 10.0))
    assert two.samples == 2 and two.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_rate_floor_limited():
    t = np.linspace(0, 10, 30)
    d = np.full_like(t, 1e-14)
    fit = fit_exponential_rate(t, d, (0.0, 10.0))
    assert abs(fit.varpi) < 1e-6


def test_fit_exponential_rate_nonpositive():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(NonPositiveDistance):
        fit_exponential_rate(t, np.array([1.0, 0.0, 1.0]), (0.0, 2.0))


def test_fit_window_stability():
    t = np.linspace(0, 8, 80)
    rng = np.random.default_rng(4)
    d = 2.0 * np.exp(-0.5 * t) * np.exp(0.02 * rng.standard_normal(80))
    full = fit_exponential_rate(t, d, (0.0, 8.0))
    half = fit_exponential_rate(t, d, (4.0, 8.0))
    assert abs(half.varpi - full.varpi) < 0.2 * full.varpi


def test_localized_bump_is_seed_deterministic():
    g = make_grid(50.0, 256)
    b1 = localized_bump(g, 42, center=10.0)
    b2 = localized_bump(g, 42, center=10.0)
    np.testing.assert_array_equal(b1, b2)
    assert np.max(b1) <= 1e-3 + 1e-15


def test_localized_bump_stays_in_its_documented_ranges():
    # the centre, read as the highest node, lies within 2 + h of `center`; the
    # width, read from the Gaussian's integral h sum(b) = 1e-3 sqrt(2 pi) width
    # (exact to round-off at h = 0.2), lies in [1.5, 3].  Over seeds 0-99 they
    # span [-1.99, 1.91] and [1.517, 2.975], so a draw squeezed into a part of
    # its range fails as well: the spreads asserted are 88% and 83% of the ranges
    g = make_grid(50.0, 512)
    bumps = np.array([localized_bump(g, seed, center=10.0) for seed in range(100)])
    offsets = g.x[np.argmax(bumps, axis=1)] - 10.0
    widths = g.h * bumps.sum(axis=1) / (1e-3 * np.sqrt(2.0 * np.pi))
    assert np.all(np.abs(offsets) <= 2.0 + g.h)
    assert np.all((widths > 1.5 - 1e-12) & (widths < 3.0 + 1e-12))
    assert np.ptp(offsets) > 3.5 and np.ptp(widths) > 1.25
    assert len({b.tobytes() for b in bumps}) == 100


@pytest.mark.parametrize("L", [40.0, 30.0])
def test_bump_near_the_edge_is_periodic_across_the_wrap(L):
    # a bump centred 5 short of the right edge; measured without the periodic
    # wrap, the Gaussian jumped by 7e-5 at the edge and its top 20 Fourier modes
    # reached 5.6e-4 of the largest, against below 2e-16 with it, so the bound
    # 1e-12 has a margin above 5000
    g = make_grid(L, 1024)
    for seed in (0, 7):
        bump = localized_bump(g, seed, center=L - 5.0)
        spec = np.abs(np.fft.rfft(bump))
        assert spec[-20:].max() < 1e-12 * spec.max()
        assert 0.999e-3 < bump.max() <= 1e-3


def test_run_experiment_unknown_kind():
    s = parse_scenario(MINIMAL)
    with pytest.raises(ValueError):
        run_experiment(s, "nonsense")


def test_verify_exact_report(tmp_path):
    s = parse_scenario(MINIMAL)
    rep = run_experiment(s, "verify-exact", out_dir=str(tmp_path))
    assert rep.passed
    summary = json.loads((tmp_path / "verify-exact-summary.json").read_text())
    assert summary["passed"] is True
    assert summary["worst"] < 1e-7
    assert (tmp_path / "resolved-config.json").exists()


def test_summary_is_deterministic(tmp_path):
    s = parse_scenario(MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(s, "verify-exact", out_dir=str(out1))
    run_experiment(s, "verify-exact", out_dir=str(out2))
    assert (out1 / "verify-exact-summary.json").read_bytes() == (
        out2 / "verify-exact-summary.json"
    ).read_bytes()
    assert (out1 / "resolved-config.json").read_bytes() == (
        out2 / "resolved-config.json"
    ).read_bytes()


def test_coercivity_summary_rounds_lambda_min_raw(tmp_path):
    # a soliton's orthogonalized bare form is zero to round-off (about 1e-11),
    # whose sign depends on the summation order; the summary writes 8 decimals
    run_experiment(parse_scenario(MINIMAL), "coercivity", out_dir=str(tmp_path))
    text = (tmp_path / "coercivity-summary.json").read_text()
    assert json.loads(text)["results"]["object_0"]["lambda_min_raw"] == 0.0
    assert '"lambda_min_raw": 0.0,' in text


def test_flagship_coercivity_summary():
    with open(SCENARIOS + "flagship.yaml") as f:
        rep = run_experiment(parse_scenario(f.read()), "coercivity")
    assert rep.summary["results"] == {
        "object_0": {"mu": 0.02920361, "lambda_min_raw": -0.18255312, "n": 512},
        "object_1": {"mu": 0.07344287, "lambda_min_raw": 0.0, "n": 512},
        "object_2": {"mu": 0.07950822, "lambda_min_raw": 0.0, "n": 512},
    }


def test_coercivity_certifies_the_breather_at_its_own_place():
    # the kind re-centres each object on a small grid; for a breather with
    # x1 != x2 that is a translation only if x1 moves with x2.  Against the
    # breather checked where it stands (L = 30 holds both), lambda_min_raw
    # differs by 1.5e-12 before the summary rounds it to 8 decimals; the bound
    # 1e-8 covers that rounding (at most 5e-9 for lambda_min_raw, under 1e-8 for
    # mu, which rounds down) and is far below the 5.4e-2 that re-centring with
    # x1 = x2 = 0 was off by
    obj = "{kind: breather, alpha: 1.0, beta: 1.0, x1: 3.0, x2: 5.0}"
    s = parse_scenario(MINIMAL.replace("{kind: soliton, c: 1.0}", obj))
    got = run_experiment(s, "coercivity").summary["results"]["object_0"]
    (o,) = s.cfg.objects
    _, p1, _ = lab._coercivity_setup(o, s.sigma, 512)
    own = lyapunov.coercivity_check(o, p1, 1, make_grid(30.0, 512))
    assert got["n"] == 512
    assert abs(got["mu"] - own.mu) < 1e-8
    assert abs(got["lambda_min_raw"] - own.lambda_min_raw) < 1e-8


def _flagship_every_step():
    # t_end = 0.02 with a snapshot every step: 41 snapshots reach every per-snapshot summary
    with open(SCENARIOS + "flagship.yaml") as f:
        s = parse_scenario(f.read())
    return replace(s, controls=replace(s.controls, t_end=0.02, save_every=1))


def test_flagship_per_snapshot_summaries():
    # every number of the per-snapshot audits, exactly: a refactor of the
    # modulation fit or the monotonicity scan must not move one bit
    s = _flagship_every_step()
    slack = 10.055742550689246
    assert run_experiment(s, "conservation").summary == {
        "drifts": {
            "M": 1.6771648169036764e-11,
            "E": 5.086431667855608e-10,
            "F": 7.175302037527924e-10,
        },
        "worst": 7.175302037527924e-10,
        "tolerance": 1e-06,
    }
    assert run_experiment(s, "modulate").summary == {
        "max_ortho_residual": 5.6028596718819387e-14,
        "max_offset": 7.8085215333637e-10,
        "max_w_h2": 0.001957429863230853,
        "tolerance": 1e-10,
    }
    assert run_experiment(s, "monotonicity").summary == {
        "functionals": {
            "j1_Mj": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999698212212452,
                "final": 9.99880824472347,
            },
            "j1_weakened_F": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 30.83865752333087,
                "final": 30.833962952829296,
            },
            "j2_Mj": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999698212212452,
                "final": 10.0023616983793,
            },
            "j2_weakened_F": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999786932585476,
                "final": 10.001936664576835,
            },
        },
        "varpi": 0.0125,
        "C": 10.055732550689246,
        "worst_drop": 0.0,
    }
    summary = run_experiment(s, "rate-fit").summary
    assert summary.pop("note").startswith("distance measured on the 1-Phi_2 weighted region")
    assert summary == {
        "varpi": 0.013398377187821076,
        "C": 0.0018100437005424404,
        "r_squared": 0.999999835544516,
        "fit_samples": 31,
        "fit_window": [0.005, 0.02],
        "varpi_calibrated": 0.0125,
        "scalar_product": {
            "j1": {"C_measured": 2.248770495948533e-10, "max_scalar": 2.2475667894491162e-10},
            "j2": {"C_measured": 1.0339466022107666e-14, "max_scalar": 1.0339332844753913e-14},
            "j3": {"C_measured": 3.9267910837850964e-10, "max_scalar": 3.9247011733813295e-10},
        },
        "global_distance_final": 0.001957429863230853,
    }


def test_monotonicity_computes_one_triple_per_snapshot_and_j(monkeypatch):
    # monotonicity computes its triples in the scenario's integrals pass: one
    # weighted_integrals call per snapshot, whose weights are Phi_1..Phi_J at that
    # snapshot's time, one triple per j; it audits the rows of Phi_1..Phi_{J-1}
    calls = []
    integrals = lab.weighted_integrals

    def counted(g, u, weights):
        calls.append(weights)
        return integrals(g, u, weights)

    monkeypatch.setattr(lab, "weighted_integrals", counted)
    s = _flagship_every_step()
    assert lab._run_monotonicity(s).passed
    times, x, fam = s.trajectory.times, s.grid.x, s.params.fam
    T = len(times)
    assert T == 41 and len(calls) == T
    for t, weights in zip(times, calls, strict=True):
        assert len(weights) == s.cfg.J == 3
        for j, w in enumerate(weights, start=1):
            assert np.array_equal(w, fam.weight(j, t, x))
    assert s.integrals.shape == (T, s.cfg.J, 3)


@pytest.mark.parametrize("first,second", [("conservation", "monotonicity"), ("monotonicity", "conservation")])
def test_conservation_and_monotonicity_share_one_integrals_pass(first, second, pair_calls):
    # the kind that runs first on a fresh scenario makes the pass, one derivative
    # pair per snapshot; the second reads it and transforms nothing
    s = _flagship_every_step()
    assert s.slack  # calibrated once per scenario, with its own pairs
    T = len(s.trajectory.times)
    pair_calls.clear()
    assert run_experiment(s, first).passed
    assert pair_calls == ["functionals"] * T
    pair_calls.clear()
    assert run_experiment(s, second).passed
    assert pair_calls == []
    assert "integrals" in vars(s) and "integrals" not in vars(replace(s))
    # a consumer cannot write into the pass the next kind reads
    with pytest.raises(ValueError):
        s.integrals[0, 0, 0] = 0.0


def test_failed_integrals_pass_leaves_the_holder_empty(monkeypatch):
    # a pass that raises caches nothing: the next kind makes the pass again and
    # meets the same failure, and once the cause is gone the pass is kept
    s = parse_scenario(TWO_SOLITONS)
    integrals = lab.weighted_integrals

    def failing(g, u, weights):
        raise FloatingPointError("stand-in failure")

    monkeypatch.setattr(lab, "weighted_integrals", failing)
    for kind in ("conservation", "monotonicity"):
        with pytest.raises(FloatingPointError):
            run_experiment(s, kind)
        assert "integrals" not in vars(s) and "trajectory" in vars(s)
    monkeypatch.setattr(lab, "weighted_integrals", integrals)
    assert run_experiment(s, "conservation").passed and "integrals" in vars(s)
    kept = s.integrals
    assert run_experiment(s, "monotonicity").passed and s.integrals is kept


@pytest.fixture
def pair_calls(monkeypatch):
    """The module that asked for each derivative_pair; each pair must have the bits
    of the oracle's spectral derivatives of orders 1 and 2."""
    calls = []
    pair = grid.derivative_pair
    for module in (grid, evolution, functionals, lyapunov, modulation):
        if getattr(module, "derivative_pair", None) is pair:

            def counted(g, f, tag=module.__name__.rsplit(".", 1)[-1]):
                calls.append(tag)
                fx, fxx = pair(g, f)
                assert np.array_equal(fx, spectral_derivative(g, f, 1))
                assert np.array_equal(fxx, spectral_derivative(g, f, 2))
                return fx, fxx

            monkeypatch.setattr(module, "derivative_pair", counted)
    return calls


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("conservation", {"functionals": 1}),
        ("monotonicity", {"functionals": 1}),
        # the fit's pair serves its H^2 norm and the pass's rate-fit series:
        # the windowed distance and all J scalar products
        ("modulate", {"modulation": 1}),
        # rate-fit after modulate reads the series of modulate's pass
        ("rate-fit", {}),
    ],
)
def test_per_snapshot_audits_transform_each_snapshot_once(kind, expected, pair_calls, monkeypatch):
    # one derivative pair per snapshot and audit, whatever J is: every tracked
    # j shares it, and each pair has the oracle's bits.  A kind that
    # fits takes its pair inside the fit, and no kind evaluates a profile per
    # snapshot: eval_object runs only for the datum's J profiles, when the
    # kind integrates it.  rate-fit runs after modulate, as in `all`, and
    # fits nothing and transforms nothing: the one pass measured its series
    s = _flagship_every_step()
    assert s.slack  # calibrated once per scenario, before the audits
    if kind == "rate-fit":
        assert run_experiment(s, "modulate").passed
    fit, eval_object = modulation.fit_translations, profiles.eval_object
    pairs_in_fits, profile_times = [], []

    def counted_fit(*args, **kwargs):
        before = len(pair_calls)
        st = fit(*args, **kwargs)
        pairs_in_fits.append(len(pair_calls) - before)
        return st

    def counted_eval(o, t, *args):
        profile_times.append(t)
        return eval_object(o, t, *args)

    monkeypatch.setattr(modulation, "fit_translations", counted_fit)
    for module in (profiles, evolution, lab, lyapunov, modulation):
        if getattr(module, "eval_object", None) is eval_object:
            monkeypatch.setattr(module, "eval_object", counted_eval)
    pair_calls.clear()
    assert run_experiment(s, kind).passed
    T = len(s.trajectory.times)
    assert s.cfg.J == 3 and T == 41
    got = {tag: pair_calls.count(tag) for tag in set(pair_calls)}
    assert got == {tag: per_snapshot * T for tag, per_snapshot in expected.items()}
    assert pairs_in_fits == ([1] * T if kind == "modulate" else [])
    assert profile_times == ([] if kind == "rate-fit" else [0.0] * s.cfg.J)


def test_modulate_and_rate_fit_share_one_newton_pass(tmp_path, pair_calls, monkeypatch):
    # the scenario keeps modulate's pass (offsets and rate-fit's series, not
    # residuals), so rate-fit after modulate fits and transforms nothing; alone,
    # rate-fit makes the same pass itself, one fit and one pair per snapshot.
    # Either way rate-fit writes the same bytes
    steps = []
    fit = modulation.fit_translations

    def counted_fit(*args, **kwargs):
        st = fit(*args, **kwargs)
        steps.append(st.iterations)
        return st

    monkeypatch.setattr(modulation, "fit_translations", counted_fit)
    shared, alone = _flagship_every_step(), _flagship_every_step()
    T = len(shared.trajectory.times)
    pair_calls.clear()
    assert run_experiment(shared, "modulate").passed
    pass_steps = list(steps)
    assert len(pass_steps) == T and sum(pass_steps) > 0
    assert pair_calls == ["modulation"] * T
    assert shared.slack  # calibrated once per scenario, with its own pairs
    steps.clear()
    pair_calls.clear()
    after = run_experiment(shared, "rate-fit", out_dir=str(tmp_path / "after"))
    assert steps == [] and pair_calls == []
    assert run_experiment(alone, "rate-fit", out_dir=str(tmp_path / "alone")).passed
    assert steps == pass_steps and pair_calls.count("modulation") == T
    assert after.summary == run_experiment(alone, "rate-fit").summary
    for name in ("rate-fit-summary.json", "rate-fit-rate.dat"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    assert "track" in vars(shared) and "track" not in vars(replace(shared))


# A5's negative control, two breathers of velocities -3.32 and -2 (v2 < 0), on
# the flagship's box
LEFTWARD_BREATHERS = """
name: leftward-breathers
objects:
  - {kind: breather, alpha: 1.2, beta: 1.0, x2: 30.0}
  - {kind: breather, alpha: 1.0, beta: 1.0, x2: -8.0}
grid: {half_length: 100.0, n: 4096}
evolution: {dt: 5.0e-4, t_end: 0.02, save_every: 10}
"""


@pytest.mark.parametrize("text", [MINIMAL, LEFTWARD_BREATHERS], ids=["lone soliton", "v2 < 0"])
def test_modulate_without_a_second_velocity_reads_no_parameters(text):
    # without v2 > 0 there is no cutoff family and rate-fit refuses the
    # scenario, so the pass computes no parameters and builds no series
    s = parse_scenario(text)
    assert not s.cfg.positive_v2
    assert run_experiment(s, "modulate").passed
    assert "params" not in vars(s) and "track" in vars(s)
    assert s.track.windowed is None and s.track.scalar is None and s.track.quadratic is None
    with pytest.raises(HypothesisViolated):
        run_experiment(s, "rate-fit")
    # with v2 > 0 the same pass builds rate-fit's series through the parameters
    s = _flagship_every_step()
    assert run_experiment(s, "modulate").passed and "params" in vars(s)
    T = len(s.trajectory.times)
    assert s.track.windowed.shape == (T,) and s.track.scalar.shape == (s.cfg.J, T)


@pytest.mark.parametrize("text", [MINIMAL, LEFTWARD_BREATHERS], ids=["lone soliton", "v2 < 0"])
def test_conservation_without_a_second_velocity_reads_no_parameters(text):
    # without v2 > 0 there is no cutoff family and monotonicity refuses the
    # scenario, so the pass weighs the whole line alone and computes no parameters
    s = parse_scenario(text)
    assert not s.cfg.positive_v2
    assert run_experiment(s, "conservation").passed
    assert "params" not in vars(s) and s.integrals.shape == (len(s.trajectory.times), 1, 3)
    with pytest.raises(HypothesisViolated):
        run_experiment(s, "monotonicity")


def test_modulation_fit_builds_the_hessian_only_for_steps_taken(monkeypatch):
    # the converged iteration reads only the residual G, so each object's
    # second partials are evaluated once per Newton step, not once per iteration
    hessians, iterations = [], []
    partials, fit = modulation._offset_partials, modulation.fit_translations

    def counted_partials(*args):
        value, dirs, hess = partials(*args)

        def counted_hess():
            hessians.append(args[0])
            return hess()

        return value, dirs, counted_hess

    def counted_fit(*args, **kwargs):
        st = fit(*args, **kwargs)
        iterations.append(st.iterations)
        return st

    monkeypatch.setattr(modulation, "_offset_partials", counted_partials)
    monkeypatch.setattr(modulation, "fit_translations", counted_fit)
    s = _flagship_every_step()
    assert run_experiment(s, "modulate").passed
    assert len(iterations) == 41 and sum(iterations) > 0
    assert len(hessians) == s.cfg.J * sum(iterations)
    assert {hessians.count(o) for o in s.cfg.objects} == {sum(iterations)}


def _translated(o, shifts):
    """The object whose profile is o's translated by the fit's offsets."""
    if isinstance(o, Soliton):
        return replace(o, x0=o.x0 - shifts[0])
    return replace(o, x1=o.x1 + shifts[0], x2=o.x2 + shifts[1])


@pytest.mark.parametrize("name", ["flagship", "lone soliton"])
def test_fit_holds_the_residual_pair_and_profiles_of_its_root(name, monkeypatch):
    # each fit of the scenario's pass keeps w, its derivative pair and each
    # shifted profile on its window, from which the pass measures rate-fit's
    # series; w is the snapshot minus the profiles placed on their windows, in
    # object order.  A fit from the stored root takes no Newton step and keeps
    # every bit, which is how README's library example rebuilds a residual.
    # rate-fit refuses a lone object, whose pass modulate still reads
    s = _flagship_every_step() if name == "flagship" else parse_scenario(MINIMAL)
    traj = s.trajectory
    fits, fit = [], modulation.fit_translations

    def kept(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(modulation, "fit_translations", kept)
    track = s.track
    monkeypatch.undo()
    assert s.cfg.J == (3 if name == "flagship" else 1) and len(traj.times) > 40
    worst = 0.0
    rows = zip(fits, traj.times, traj.values, track.offsets, track.w_h2, strict=True)
    for st, t, row, y, w_h2 in rows:
        assert np.array_equal(st.offsets, y) and st.w_h2 == w_h2
        total = np.zeros(s.grid.n)
        for sl, p in zip(st.windows, st.profiles, strict=True):
            total[sl] += p
        assert np.array_equal(st.w, row - total)
        shifts = modulation.split_offsets(s.cfg, y)
        assert len(st.profiles) == len(st.windows) == len(shifts) == s.cfg.J
        for o, sh, sl, p in zip(s.cfg.objects, shifts, st.windows, st.profiles):
            assert 0 < sl.stop - sl.start == len(p)
            moved = profiles.eval_object(_translated(o, sh), t, s.grid.x[sl])
            worst = max(worst, float(np.max(np.abs(p - moved))))
        for order, got in enumerate(st.w_pair, start=1):
            assert np.array_equal(got, spectral_derivative(s.grid, st.w, order))
        # the stored offsets are a root: a refit from them takes no step
        again = modulation.fit_translations(s.grid, row, s.cfg, t, guess=y)
        assert again.iterations == 0 and again.w_h2 == st.w_h2 and again.windows == st.windows
        rebuilt, held = [again.w, *again.w_pair, *again.profiles], [st.w, *st.w_pair, *st.profiles]
        assert all(map(np.array_equal, rebuilt, held))
    # each held profile is the object moved by its offsets, up to the rounding
    # of the translated argument: measured 1.0e-14 on the flagship (profiles of
    # height about 2.8) and 0 on the lone soliton, a margin of 10
    assert worst < 1e-13


def _full_grid_pass(s):
    """The oracle's full-grid fit at every snapshot, warm-started like the pass."""
    states, guess = [], None
    for t, row in zip(s.trajectory.times, s.trajectory.values):
        states.append(full_grid_fit(s.grid, row, s.cfg, t, guess=guess))
        guess = states[-1].offsets
    return states


@pytest.mark.parametrize("t_end,T", [(0.02, 41), (0.1, 201)], ids=["every step", "dense"])
def test_windowed_pass_agrees_with_the_full_grid_fit(t_end, T, monkeypatch):
    # the flagship with a snapshot every step, to t = 0.02 and to t = 0.1 (the
    # benchmark's flagship-dense run), fitted on windows and on the full grid
    s = _flagship_every_step()
    s = replace(s, controls=replace(s.controls, t_end=t_end))
    fits, fit = [], modulation.fit_translations

    def kept(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(modulation, "fit_translations", kept)
    track = s.track
    monkeypatch.undo()
    ref = _full_grid_pass(s)
    assert len(fits) == len(ref) == T
    # the same Newton steps, and roots that agree to the rounding of the
    # offsets: measured 1.5e-14 of the largest offset (5.1e-23 absolute) and
    # 2.2e-16 of w_h2, bounded with a margin of 10
    assert [st.iterations for st in fits] == [st.iterations for st in ref]
    offsets = np.array([st.offsets for st in ref])
    assert np.max(np.abs(track.offsets - offsets)) <= 1.5e-13 * np.max(np.abs(offsets))
    w_h2 = np.array([st.w_h2 for st in ref])
    assert np.max(np.abs(track.w_h2 - w_h2) / w_h2) <= 2.2e-15
    # every root is orthogonal to the stopping rule's 1e-12 on its windows and
    # on the full grid, where the offset partials are evaluated at every node
    assert np.max(np.abs(track.ortho_residuals)) < 1e-12
    for st, t, row in zip(fits, s.trajectory.times, s.trajectory.values):
        shifts = modulation.split_offsets(s.cfg, st.offsets)
        w = row - shifted_profile_sum(s.cfg, t, s.grid, shifts)
        for o, sh in zip(s.cfg.objects, shifts):
            for d in modulation_directions(o, sh, t, s.grid):
                assert abs(integrate(s.grid, d * w)) < 1e-12
        # the truncation is certified: at every node a window leaves out, the
        # moved object's decay envelope is below the floor of its peak
        for o, sh, sl in zip(s.cfg.objects, shifts, st.windows):
            moved = _translated(o, sh)
            env = decay_envelope(moved, t, s.grid.x) / decay_envelope(moved, t, center(moved, t))
            assert np.all(env[sl] >= modulation.WINDOW_FLOOR * (1 - 1e-12))
            assert np.all(np.delete(env, np.arange(sl.start, sl.stop)) < modulation.WINDOW_FLOOR)


def test_rate_fit_note_names_its_weight(tmp_path, capsys):
    two = run_experiment(parse_scenario(TWO_SOLITONS), "rate-fit")
    assert two.summary["note"].startswith("distance measured on the 1-Phi_1 weighted region")
    # a lone object has no cutoff to window by, so rate-fit refuses it and writes nothing
    lone = _write(tmp_path, MINIMAL.replace("t_end: 0.1", "t_end: 0.1, save_every: 25"))
    out = tmp_path / "out"
    assert main(["rate-fit", "--scenario", lone, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "rate-fit: invalid input: the cutoff audits need a positive second-smallest "
        "velocity (sorted velocities: 1)\n"
    )
    assert not out.exists()


def test_resolved_config_is_built_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    calibrate = lab.calibrate_slack

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    monkeypatch.setattr(lab, "calibrate_slack", counted)
    rep = ExperimentReport(kind="demo", passed=True, summary={})
    s = parse_scenario(TWO_SOLITONS)
    for out in ("a", "b", "c"):
        write_report(s, rep, str(tmp_path / out))
    assert len(calls) == 1
    text = (tmp_path / "c" / "resolved-config.json").read_text()
    assert text == json.dumps(resolved_config(s), indent=2, sort_keys=True) + "\n"
    # equal scenarios that are written differently are not confused
    negative_zero = parse_scenario(TWO_SOLITONS.replace("c: 1.0}", "c: 1.0, x0: -0.0}"))
    assert negative_zero == s
    write_report(negative_zero, rep, str(tmp_path / "d"))
    assert '"x0": -0.0' in (tmp_path / "d" / "resolved-config.json").read_text()
    assert '"x0": -0.0' not in text


def _non_json_leaves(node, path):
    """The key paths under node that plain json.dump cannot write: a leaf other
    than str, bool, int, float or None, or a mapping key other than a str."""
    if isinstance(node, dict):
        bad = [f"{path} key {k!r}" for k in node if not isinstance(k, str)]
        return bad + [p for k, v in node.items() for p in _non_json_leaves(v, f"{path}.{k}")]
    if isinstance(node, (list, tuple)):
        return [p for i, v in enumerate(node) for p in _non_json_leaves(v, f"{path}[{i}]")]
    if node is None or isinstance(node, (str, bool, int, float)):
        return []
    return [f"{path}: {type(node).__module__}.{type(node).__qualname__}"]


@pytest.mark.parametrize("name", ["flagship", "single-soliton", "single-breather"])
def test_every_summary_and_config_leaf_is_a_json_type(name):
    # write_report dumps with no default=, so a numpy bool, integer or array in a
    # summary would make json.dump raise TypeError, reported as invalid input
    with open(SCENARIOS + f"{name}.yaml") as f:
        s = parse_scenario(f.read())
    s = replace(s, controls=replace(s.controls, t_end=0.2, save_every=200))
    assert _non_json_leaves(resolved_config(s), "resolved_config") == []
    # a lone object has no cutoff, so the two cutoff audits refuse it
    refused = () if s.cfg.positive_v2 else ("monotonicity", "rate-fit")
    for kind in EXPERIMENT_KINDS:
        if kind in refused:
            with pytest.raises(HypothesisViolated):
                run_experiment(s, kind)
        else:
            assert _non_json_leaves(run_experiment(s, kind).summary, kind) == []
    # every kind audited one read-only run of the scenario's datum: the profile
    # sum and, with a gap between objects to hold it, the seeded bump
    datum = profile_sum(s.cfg, 0.0, s.grid)
    if s.cfg.J > 1:
        datum = datum + localized_bump(s.grid, s.seed, lab._bump_center(s.cfg))
    assert np.array_equal(s.trajectory.values[0], datum)
    assert not (s.trajectory.values.flags.writeable or s.trajectory.times.flags.writeable)


def test_emit_plot_data_columns(tmp_path):
    rep = ExperimentReport(
        kind="demo",
        passed=True,
        summary={},
        series={"series": {"t": [0.0, 1.0], "v": [2.0, 3.0]}, "empty": {}},
    )
    write_report(parse_scenario(MINIMAL), rep, str(tmp_path))
    lines = (tmp_path / "demo-series.dat").read_text().splitlines()
    assert lines[0] == "# t\tv"
    assert len(lines) == 3
    assert (tmp_path / "demo-empty.dat").read_text().startswith("#")


def test_write_report_refuses_unequal_columns(tmp_path):
    rep = ExperimentReport(
        kind="demo", passed=True, summary={}, series={"series": {"t": [0.0, 1.0], "v": [2.0]}}
    )
    with pytest.raises(ValueError):
        write_report(parse_scenario(MINIMAL), rep, str(tmp_path))
    assert not (tmp_path / "demo-series.dat").exists()


def test_monotonicity_runs_at_a_steep_cutoff():
    # sigma = 600 on [-60, 60): the cutoff's exponent sqrt(sigma) |x| / 2 reaches
    # 735 at the left edge, past exp's overflow at 709.78, and the suite turns a
    # RuntimeWarning into an error
    rep = run_experiment(parse_scenario(TWO_SOLITONS + "sigma: 600\n"), "monotonicity")
    assert rep.passed


def test_conservation_experiment_short(tmp_path):
    s = parse_scenario(MINIMAL.replace("t_end: 0.1", "t_end: 0.5"))
    rep = run_experiment(s, "conservation", out_dir=str(tmp_path))
    assert rep.passed
    assert rep.summary["worst"] < 1e-6
    assert os.path.exists(tmp_path / "conservation-conserved.dat")


# two solitons with a positive second velocity, so every kind runs, and
# five saves, so rate-fit has two in its window [t_end/4, t_end]
TWO_SOLITONS = """
name: two-solitons
objects:
  - {kind: soliton, c: 1.0}
  - {kind: soliton, c: 2.25, x0: 25.0}
grid: {half_length: 60.0, n: 1024}
evolution: {dt: 1.0e-3, t_end: 0.1, save_every: 25}
seed: 3
"""


@pytest.fixture
def evolve_calls(monkeypatch):
    """The data lab integrates."""
    calls = []
    evolve = lab.evolve

    def counted(g, u0, controls):
        calls.append(u0)
        return evolve(g, u0, controls)

    monkeypatch.setattr(lab, "evolve", counted)
    return calls


def test_all_kinds_integrate_each_datum_once(evolve_calls):
    # conservation, monotonicity, modulate and rate-fit share the one run of
    # the scenario's datum
    s = parse_scenario(TWO_SOLITONS)
    for kind in EXPERIMENT_KINDS:
        assert run_experiment(s, kind).passed
    assert len(evolve_calls) == 1


def test_all_kinds_derive_the_lyapunov_parameters_once(tmp_path, monkeypatch):
    # one select_parameters for the scenario and one per coercivity object;
    # one calibrate_slack, shared by monotonicity, rate-fit and the config
    calls = {"select_parameters": 0, "calibrate_slack": 0}
    for name in calls:

        def counted(*args, fn=getattr(lab, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(lab, name, counted)
    s = parse_scenario(TWO_SOLITONS)
    for kind in EXPERIMENT_KINDS:
        assert run_experiment(s, kind, out_dir=str(tmp_path)).passed
    assert calls == {"select_parameters": 1 + s.cfg.J, "calibrate_slack": 1}


def test_equal_scenarios_integrate_their_own_datum(evolve_calls):
    s, twin = parse_scenario(TWO_SOLITONS), parse_scenario(TWO_SOLITONS)
    assert s == twin
    run_experiment(s, "conservation")
    run_experiment(twin, "conservation")
    assert len(evolve_calls) == 2
    run_experiment(s, "modulate")
    assert len(evolve_calls) == 2


def test_replaced_scenario_integrates_afresh(evolve_calls):
    # replace builds a scenario with no cached run, even for equal controls
    s = parse_scenario(TWO_SOLITONS)
    run_experiment(s, "conservation")
    same = replace(s, controls=replace(s.controls))
    assert same == s and repr(same) == repr(s)
    run_experiment(same, "conservation")
    assert len(evolve_calls) == 2
    shorter = replace(s, controls=replace(s.controls, t_end=0.05))
    assert len(run_experiment(shorter, "conservation").series["conserved"]["t"]) == 3
    assert len(evolve_calls) == 3


def test_shared_trajectory_gives_the_artifacts_of_a_fresh_one(tmp_path, evolve_calls):
    s = parse_scenario(TWO_SOLITONS)
    kinds = ("conservation", "monotonicity", "modulate", "rate-fit")
    for kind in kinds:
        run_experiment(s, kind, out_dir=str(tmp_path / "shared"))
    assert len(evolve_calls) == 1
    for kind in kinds:
        run_experiment(parse_scenario(TWO_SOLITONS), kind, out_dir=str(tmp_path / "fresh"))
    assert len(evolve_calls) == 5
    names = sorted(os.listdir(tmp_path / "shared"))
    assert names == sorted(os.listdir(tmp_path / "fresh"))
    assert sum(n.endswith("-summary.json") for n in names) == 4
    assert sum(n.endswith(".dat") for n in names) == 5
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    # a consumer cannot write into the block the next kind reads
    traj = s.trajectory
    with pytest.raises(ValueError):
        traj.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        traj.times[0] = 1.0
    assert len(evolve_calls) == 5


def test_failed_integration_leaves_the_holder_empty(evolve_calls, monkeypatch):
    # a run that raises caches nothing: the next kind integrates again and
    # meets the same failure, and once the cause is gone the run is kept
    s = parse_scenario(TWO_SOLITONS)
    step = evolution._Stepper.step
    monkeypatch.setattr(evolution._Stepper, "step", lambda self, uh: uh * np.nan)
    for kind in ("conservation", "modulate"):
        with pytest.raises(BlowUp):
            run_experiment(s, kind)
        assert "trajectory" not in vars(s)
    assert len(evolve_calls) == 2
    monkeypatch.setattr(evolution._Stepper, "step", step)
    assert run_experiment(s, "conservation").passed and "trajectory" in vars(s)
    # a datum that evolve refuses leaves nothing either
    unstable = parse_scenario(TWO_SOLITONS.replace("dt: 1.0e-3", "dt: 0.1"))
    with pytest.raises(ValueError, match="CFL"):
        run_experiment(unstable, "conservation")
    assert "trajectory" not in vars(unstable)


def _write(tmp_path, text):
    p = tmp_path / "scenario.yaml"
    p.write_text(text)
    return str(p)


def test_cli_pass_exit_code(tmp_path):
    path = _write(tmp_path, MINIMAL)
    assert main(["verify-exact", "--scenario", path]) == 0


def test_cli_verify_exact_fails_on_an_unresolved_breather(tmp_path, capsys):
    # breather(1, 1) on [-50, 50) with n = 1024 leaves a residual of 2.1e-6 at
    # t = 0, 21 times RESIDUAL_TOL = 1e-7; at n = 2048 it is 3.7e-11, a margin
    # of 2.7e3 under it
    argv = ["verify-exact", "--scenario", SCENARIOS + "single-breather.yaml"]
    argv += ["--override", "grid.half_length=50", "--out", str(tmp_path)]
    assert main(argv + ["--override", "grid.n=1024"]) == 1
    assert capsys.readouterr().out == "verify-exact: FAIL\n"
    summary = json.loads((tmp_path / "verify-exact-summary.json").read_text())
    assert summary["passed"] is False
    assert summary["worst"] > 10 * lab.RESIDUAL_TOL
    assert main(argv + ["--override", "grid.n=2048"]) == 0
    assert capsys.readouterr().out == "verify-exact: PASS\n"


def test_cli_conservation_fails_at_a_step_near_the_stability_bound(tmp_path, capsys):
    # MINIMAL's soliton has max|u|^2 = 2, so its bound 2 / (max|u|^2 k_max) on
    # [-60, 60) with n = 1024 is 0.0373.  At dt = 0.035, 94% of it, 100 steps
    # drift F by 2.2e-4, 225 times DRIFT_TOL = 1e-6; a tenth of that dt over
    # the same span drifts it by 5.5e-9, a margin of 180 under the tolerance
    s = parse_scenario(MINIMAL)
    assert 0.9 < 0.035 / stability_bound(s.grid, profile_sum(s.cfg, 0.0, s.grid)) < 1.0
    argv = ["conservation", "--scenario", _write(tmp_path, MINIMAL), "--out", str(tmp_path)]
    argv += ["--override", "evolution.t_end=3.5", "--override", "evolution.save_every=10"]
    assert main(argv + ["--override", "evolution.dt=0.035"]) == 1
    assert capsys.readouterr().out == "conservation: FAIL\n"
    summary = json.loads((tmp_path / "conservation-summary.json").read_text())
    assert summary["passed"] is False
    assert summary["worst"] > 100 * lab.DRIFT_TOL
    assert main(argv + ["--override", "evolution.dt=0.0035"]) == 0
    assert capsys.readouterr().out == "conservation: PASS\n"


def test_cli_refuses_a_datum_that_is_not_finite(tmp_path, capsys, monkeypatch):
    # evolve checks the datum it is handed: a NaN that reaches it is invalid
    # input, reported on one line, and the kind writes nothing
    monkeypatch.setattr(lab, "profile_sum", lambda cfg, t, g: np.full(g.n, np.nan))
    out = tmp_path / "out"
    argv = ["conservation", "--scenario", _write(tmp_path, MINIMAL), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "conservation: invalid input: u0 must be finite\n"
    assert not out.exists()


def test_cli_invalid_scenario_exit_code(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("c: 1.0", "c: -1.0"))
    assert main(["verify-exact", "--scenario", path]) == 2


def test_cli_refusal_names_the_sorted_velocities(capsys):
    # the lone breather(1, 1), at velocity -2, has no second velocity and so no cutoff
    assert main(["monotonicity", "--scenario", SCENARIOS + "single-breather.yaml"]) == 2
    assert capsys.readouterr().err == (
        "monotonicity: invalid input: the cutoff audits need a positive second-smallest "
        "velocity (sorted velocities: -2)\n"
    )


def test_cli_refuses_velocities_one_ulp_apart(tmp_path, capsys):
    # no cutoff speed lies strictly between them: invalid input naming both
    near = float(np.nextafter(1.0, 2.0))
    text = MINIMAL.replace(
        "- {kind: soliton, c: 1.0}",
        f"- {{kind: soliton, c: 1.0}}\n  - {{kind: soliton, c: {near}, x0: 20.0}}",
    )
    assert main(["verify-exact", "--scenario", _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"invalid input: velocities 1.0 and {near} "
        "have no float strictly between them\n"
    )


def test_cli_missing_file_exit_code(tmp_path):
    assert main(["verify-exact", "--scenario", str(tmp_path / "nope.yaml")]) == 2


def test_cli_override(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    code = main(
        [
            "verify-exact",
            "--scenario",
            path,
            "--override",
            "grid.n=2048",
            "--override",
            "name=renamed",
            "--override",
            "objects.0.c=2",
        ]
    )
    assert code == 0


def test_cli_bad_override(tmp_path):
    path = _write(tmp_path, MINIMAL)
    for override in ("oops", "objects.9.c=2", "name.x=1"):
        assert main(["verify-exact", "--scenario", path, "--override", override]) == 2


def test_cli_runtime_failure_exit_code(tmp_path, monkeypatch):
    path = _write(tmp_path, MINIMAL)
    for exc in (BlowUp(0.5), RuntimeError("unexpected")):

        def fail(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert main(["verify-exact", "--scenario", path]) == 3


@pytest.mark.parametrize(
    "override",
    [
        "grid.n=.inf",
        "evolution.save_every=.inf",
        "seed=.inf",
        "objects.0.kappa=.inf",
        "objects.0.x0=.inf",
        "objects.0.c=.nan",
        "sigma=.inf",
        "grid.half_length=.inf",
        # an int beyond the float range is no finite number either
        *(
            pytest.param(f"{field}={sign}{10**400}", id=f"{field}={sign}10**400")
            for field, sign in (
                ("sigma", ""),
                ("grid.half_length", ""),
                ("objects.0.c", ""),
                ("objects.0.x0", "-"),
                ("evolution.dt", ""),
            )
        ),
    ],
)
def test_cli_infinite_integer_field_is_invalid_input(tmp_path, capsys, override):
    path = _write(tmp_path, MINIMAL)
    assert main(["verify-exact", "--scenario", path, "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "must be finite" in err
    assert f"{override.split('=')[0].replace('.0.', '[0].')} must be finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "field, fraction, whole",
    [
        ("grid.n", 1024.5, 1024.0),
        ("evolution.save_every", 1.7, 2.0),
        ("seed", 0.5, 3.0),
        ("objects.0.kappa", 1.5, 1.0),
        # PyYAML reads these as strings, as it reads 1e-3
        ("evolution.save_every", "1.5e0", "1e1"),
    ],
)
def test_cli_fractional_integer_field_is_invalid_input(tmp_path, capsys, field, fraction, whole):
    # a fraction is rejected, not truncated; an integral float is accepted
    path = _write(tmp_path, MINIMAL)
    assert main(["verify-exact", "--scenario", path, "--override", f"{field}={fraction}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "must be a whole number" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert main(["verify-exact", "--scenario", path, "--override", f"{field}={whole}"]) == 0


@pytest.mark.parametrize(
    "override, message",
    [
        ("evolution.save_evry=10", "evolution has unknown fields ['save_evry']"),
        ("grid.nn=4", "grid has unknown fields ['nn']"),
        ("sigmaa=3", "scenario has unknown fields ['sigmaa']"),
        ("evolution.dealias=nope", "evolution has unknown fields ['dealias']"),
        ("output_dir=out", "scenario has unknown fields ['output_dir']"),
        ("seed=true", "seed must be a number, got True"),
        ("objects.0.c=true", "objects[0].c must be a number, got True"),
        ("sigma=true", "sigma must be a number, got True"),
        ("objects.0.kappa=true", "objects[0].kappa must be a number, got True"),
        ("evolution.save_every=true", "evolution.save_every must be a number, got True"),
        ("grid.n=[1]", "grid.n must be a number, got [1]"),
        ("objects.0.c=abc", "objects[0].c must be a number, got 'abc'"),
        ("sigma={a: 1}", "sigma must be a number, got {'a': 1}"),
        ("grid={n: 1024}", "grid missing required fields ['half_length']"),
        ("objects.0.kind=[1]", "objects[0].kind must be 'soliton' or 'breather', got [1]"),
        ("seed=-1", "seed must be non-negative, got -1"),
        ("name=null", "name must be a non-empty string, got None"),
        ("name=[1]", "name must be a non-empty string, got [1]"),
        ("name=''", "name must be a non-empty string, got ''"),
    ],
)
def test_cli_schema_violation_is_invalid_input(tmp_path, capsys, override, message):
    # no key is silently dropped and no boolean is read as 0 or 1; a number
    # written as a string, which is how PyYAML reads 1e-3, still parses
    path = _write(tmp_path, MINIMAL)
    assert main(["verify-exact", "--scenario", path, "--override", override]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {message}\n"
    assert main(["verify-exact", "--scenario", path, "--override", "evolution.dt=1e-3"]) == 0


NEAR_UNIT_SOLITON = """
name: near-unit-soliton
objects:
  - {kind: soliton, c: 1.0}
%s
grid: %s
evolution: {dt: 2.0e-3, t_end: %s, save_every: %s}
"""

# the c = 4 soliton runs into the c = 1 one
COLLISION = "  - {kind: soliton, c: 4.0, x0: -8.0}"
# a soliton and an antisoliton of almost equal speed at one place, and a c = 4
# soliton at 30 that puts the seeded bump in the gap [0, 30], away from the pair
PARALLEL_DIRECTIONS = (
    "  - {kind: soliton, c: 1.0000001, kappa: -1}\n  - {kind: soliton, c: 4.0, x0: 30.0}"
)


@pytest.mark.parametrize(
    "others,box,t_end,save_every,error,message",
    [
        # by t = 1 the residual (H^2 norm 0.5198) has left the basin of radius
        # 0.5, a margin of 4%; the 0.568 read on the unresolved n = 256 grid
        # was that grid's artifact.  n = 1024 is the smallest grid the
        # resolution guard lets through (tail 2.1e-13; n = 512 reads 4.4e-7),
        # and at n = 2048 the run fails at the same snapshot with the same norm
        pytest.param(
            COLLISION,
            "{half_length: 40.0, n: 1024}",
            1.5,
            25,
            NoConvergence,
            "snapshot t=1: orthogonality root found but residual H2 norm 5.198e-01 "
            "exceeds the basin radius 5.000e-01",
            id="collision",
        ),
        # the pair's translation directions are parallel to 1e-7 (alone, the
        # pair's one gap has width 0 and the bump lands on it, which keeps the
        # Jacobian well conditioned).  The bump leaves the datum off the profile
        # family, so the first fit, at t = 0, takes a Newton step; the condition
        # number reads 1.04e15 against the limit 1e12 (1.02e15 at n = 2048), and
        # the test asks for more than 1e14, a factor of 10 below the measured
        # value.  n = 1024 is the smallest grid the resolution guard lets
        # through: the run's tail reads at most 5.9e-9
        pytest.param(
            PARALLEL_DIRECTIONS,
            "{half_length: 60.0, n: 1024}",
            0.1,
            10,
            SingularJacobian,
            "snapshot t=0: modulation Jacobian condition number ",
            id="parallel-directions",
        ),
    ],
)
def test_cli_modulation_failure_names_its_snapshot(
    tmp_path, capsys, others, box, t_end, save_every, error, message
):
    text = NEAR_UNIT_SOLITON % (others, box, t_end, save_every)
    assert main(["modulate", "--scenario", _write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"modulate: runtime failure: {message}") and err.count("\n") == 1
    if error is SingularJacobian:
        assert float(err.split()[-1]) > 1e14
    # a pass that raises caches nothing, so rate-fit makes the pass again and
    # meets the same failure
    s = parse_scenario(text)
    for kind in ("modulate", "rate-fit"):
        with pytest.raises(error, match="^snapshot t=") as raised:
            run_experiment(s, kind)
        assert err == f"modulate: runtime failure: {raised.value}\n"
        assert "track" not in vars(s)


@pytest.mark.parametrize(
    "others,box,t_end,save_every,message",
    [
        pytest.param(
            COLLISION,
            "{half_length: 40.0, n: 256}",
            1.5,
            25,
            "unresolved at t=0: the top sixteenth of the spectrum is 4.47e-04 of its peak "
            "at n=256, above the budget 1e-08",
            id="collision-256",
        ),
        pytest.param(
            PARALLEL_DIRECTIONS,
            "{half_length: 60.0, n: 512}",
            0.1,
            10,
            "unresolved at t=0: the top sixteenth of the spectrum is 1.31e-04 of its peak "
            "at n=512, above the budget 1e-08",
            id="parallel-directions-512",
        ),
    ],
)
def test_cli_refuses_the_controls_on_their_unresolved_grids(
    tmp_path, capsys, others, box, t_end, save_every, message
):
    # the two controls' former grids: the guard stops each run before its
    # Newton failure, at exit 3 with one line, and the refused run is not kept
    text = NEAR_UNIT_SOLITON % (others, box, t_end, save_every)
    assert main(["modulate", "--scenario", _write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err == f"modulate: runtime failure: {message}\n"
    s = parse_scenario(text)
    with pytest.raises(Unresolved) as raised:
        run_experiment(s, "modulate")
    assert err == f"modulate: runtime failure: {raised.value}\n"
    assert "trajectory" not in vars(s)


# two solitons on a box wide enough for both over [0, 4], integrated at a step
# whose time error outgrows the bump
SLOW_STEP_PAIR = """
name: slow-step-pair
objects:
  - {kind: soliton, c: 1.0}
  - {kind: soliton, c: 4.0, x0: 30.0}
grid: {half_length: 120.0, n: 2048}
evolution: {dt: 2.0e-3, t_end: 4.0, save_every: 100}
sigma: 0.01
seed: 7
"""


def test_rate_fit_fails_where_the_residual_cannot_decay(tmp_path, capsys):
    # the time error at dt = 2e-3 grows linearly, mostly inside the window
    # 1 - Phi_1: against the exact sum of the two profiles, the H^2 error of the
    # unbumped run reads 2.4e-3 at t = 0.2 and 3.4e-2 at t = 4, 2.3e-2 of it in the
    # window, and the fit's global_w_h2 grows from 2.0e-3 to 3.3e-2.  So the
    # windowed distance grows 13-fold over the run: varpi -0.411 with r^2 0.950 on
    # 16 samples, which passes the r^2 condition of the gate and fails only
    # varpi > 0.  At dt = 1e-3 the H^2 error stays at or below 5.0e-4 and varpi
    # reads +0.016.  The bounds leave about 0.1 on varpi each way and 0.05 on r^2
    # (RATE_R2_TOL is 0.9)
    argv = ["rate-fit", "--scenario", _write(tmp_path, SLOW_STEP_PAIR), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().out == "rate-fit: FAIL\n"
    summary = json.loads((tmp_path / "rate-fit-summary.json").read_text())
    assert summary["passed"] is False
    assert summary["fit_window"] == [1.0, 4.0]
    t, _, w_h2 = np.loadtxt(tmp_path / "rate-fit-rate.dat")[:, :3].T
    assert np.sum(t >= 1.0) == summary["fit_samples"] == 16
    assert -0.5 < summary["varpi"] < -0.3
    assert lab.RATE_R2_TOL < summary["r_squared"] < 0.99
    assert w_h2[0] < 2.5e-3 and w_h2[-1] > 10 * w_h2[0]


def test_cli_rate_fit_refuses_a_window_with_one_sample(tmp_path, capsys):
    # dt 5e-4 and a save every 400 steps keep t = 0 and t = 0.2 only, so the
    # window [0.05, 0.2] holds one snapshot: invalid input, and nothing written
    argv = ["rate-fit", "--scenario", SCENARIOS + "flagship.yaml", "--out", str(tmp_path)]
    argv += ["--override", "evolution.t_end=0.2", "--override", "evolution.save_every=400"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "rate-fit: invalid input: fit window [0.05, 0.2] holds 1 sample(s); "
        "the rate fit needs at least two\n"
    )
    assert list(tmp_path.iterdir()) == []


SLOW_SOLITON = """
name: slow-soliton
objects:
  - {kind: soliton, c: 0.01}
grid: {half_length: 250.0, n: 256}
evolution: {dt: 1.0e-3, t_end: 0.01}
"""


def test_coercivity_certifies_a_slow_soliton(tmp_path, capsys):
    # a soliton's coercivity constant scales about like c^2 (0.073 at c = 1), so
    # at c = 0.01 mu* is 4.338e-5, below the floor 1e-4 of the fixed grid of mu
    # that the check once searched, and far above the noise floor n eps max|lam|
    s = parse_scenario(SLOW_SOLITON)
    rep = run_experiment(s, "coercivity")
    assert rep.passed is True
    assert rep.summary["results"]["object_0"] == {"mu": 4.338e-05, "lambda_min_raw": 0.0, "n": 256}
    assert main(["coercivity", "--scenario", _write(tmp_path, SLOW_SOLITON)]) == 0
    assert capsys.readouterr().out == "coercivity: PASS\n"


def test_coercivity_reports_a_failed_eigensolve(tmp_path, capsys, monkeypatch):
    # Lanczos stopping at its iteration cap before its Ritz pairs converge; the
    # check's first eigenproblem needs 18 iterations for this soliton, so 5 fail it
    monkeypatch.setattr(lyapunov, "LANCZOS_MAX_ITERS", 5)
    s = parse_scenario(MINIMAL)
    (o,) = s.cfg.objects
    centered, p1, g = lab._coercivity_setup(o, s.sigma, 256)
    with pytest.raises(EigensolveFailure, match="did not converge in 5 iterations"):
        lyapunov.coercivity_check(centered, p1, 1, g)
    assert main(["coercivity", "--scenario", _write(tmp_path, MINIMAL)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("coercivity: runtime failure") and err.count("\n") == 1


def _python(code: str) -> str:
    """stdout of `python -c code` with this checkout's mkdvlab first on the path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


def test_scipy_stays_off_the_import_path():
    # scipy is a test dependency only: importing the CLI loads none of it, and
    # the coercivity kind, its only eigensolve, runs with scipy blocked
    loaded = _python(
        "import sys, mkdvlab.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert loaded == "[]\n"
    blocked = _python(
        "import json, sys; sys.modules['scipy'] = None\n"
        "from mkdvlab.lab import parse_scenario, run_experiment\n"
        f"with open({SCENARIOS + 'flagship.yaml'!r}) as f:\n"
        "    s = parse_scenario(f.read())\n"
        "print(json.dumps(run_experiment(s, 'coercivity').summary))"
    )
    with open(SCENARIOS + "flagship.yaml") as f:
        in_process = run_experiment(parse_scenario(f.read()), "coercivity").summary
    assert json.loads(blocked) == in_process


def test_rate_fit_runs_with_numpy_random_blocked():
    # the bump's two draws come from the standard library's random, whose first
    # use loads nothing; numpy.random's loads hashlib, secrets and OpenSSL
    blocked = _python(
        "import json, sys; sys.modules['numpy.random'] = None\n"
        "from mkdvlab.lab import parse_scenario, run_experiment\n"
        f"print(json.dumps(run_experiment(parse_scenario({TWO_SOLITONS!r}), 'rate-fit').summary))"
    )
    in_process = run_experiment(parse_scenario(TWO_SOLITONS), "rate-fit").summary
    assert json.loads(blocked) == in_process


def test_cli_all_runs_every_kind_past_a_failure(capsys):
    # a lone breather has no positive second velocity, so the kinds that
    # need the rightward cutoff family stop with exit 2; the others still run
    code = main(
        ["all", "--scenario", SCENARIOS + "single-breather.yaml", "--override", "evolution.t_end=0.01"]
    )
    out, err = capsys.readouterr()
    assert "monotonicity: invalid input: " in err
    assert "modulate: PASS" in out and "coercivity: PASS" in out
    assert code == 2


def test_cli_scenario_failure_stops_before_any_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", pytest.fail)
    path = _write(tmp_path, MINIMAL.replace("c: 1.0", "c: -1.0"))
    assert main(["all", "--scenario", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 300),
    st.floats(-300.0, 300.0),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=4),
)
# nested values stay small: every integer or float is at most 300, and a
# string of four characters parses to at most 9999, so no grid gets large
_VALUE = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_BASE = yaml.safe_load(BARE)
# every key of every section, read off the dataclasses that section builds; an
# object's keys go to both objects, the breather and the soliton
_PATHS = [
    "name", "objects", "objects.0", "objects.0.kind", "objects.1.kind", "objects.2.c",
    "objects.x", "grid", "grid.n.x", "evolution", "sigma", "seed", "name.x", "",
    *(f"objects.{i}.{f.name}" for i in (0, 1) for cls in (Soliton, Breather) for f in fields(cls)),
    *(f"grid.{f.name}" for f in fields(Grid)),
    *(f"evolution.{f.name}" for f in fields(EvolutionControls)),
]


@st.composite
def _documents(draw):
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    doc = dict(_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(_BASE) + ["sigma", "seed"]), max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_VALUE)
    return yaml.safe_dump(doc)


_OVERRIDES = st.lists(
    st.one_of(
        st.builds(lambda k, v: f"{k}={yaml.safe_dump(v).splitlines()[0]}", st.sampled_from(_PATHS), _LEAF),
        st.builds(lambda k, v: f"{k}={v}", st.sampled_from(_PATHS), st.text(max_size=4)),
        st.text(max_size=8),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(text=_documents(), overrides=_OVERRIDES)
def test_cli_fuzzed_input_exits_cleanly(text, overrides):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "scenario.yaml")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        argv = ["verify-exact", "--scenario", path] + [f"--override={o}" for o in overrides]
        assert main(argv) in (0, 1, 2, 3)
