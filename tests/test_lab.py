"""Scenario parsing, experiment drivers, rate fitting, persistence, CLI."""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdvlab import cli, lab, lyapunov
from mkdvlab.cli import main
from mkdvlab.errors import BlowUp, DuplicateVelocity, NonPositiveDistance
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
from mkdvlab.grid import make_grid

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
    for key in ("sigma_effective", "omega", "varpi_hat", "C_hat", "tau0"):
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


def test_fit_exponential_rate_exact():
    t = np.linspace(0, 10, 50)
    d = 3.0 * np.exp(-0.7 * t)
    fit = fit_exponential_rate(t, d, (0.0, 10.0))
    assert fit.varpi == pytest.approx(0.7, abs=1e-10)
    assert fit.C == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


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
    np.testing.assert_array_equal(b1.values, b2.values)
    assert np.max(b1.values) <= 1e-3 + 1e-15


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
        "object_0": {"mu": 0.025118864315095822, "lambda_min_raw": -0.18317121, "n": 512},
        "object_1": {"mu": 0.06309573444801936, "lambda_min_raw": 0.0, "n": 512},
        "object_2": {"mu": 0.07943282347242822, "lambda_min_raw": 0.0, "n": 512},
    }


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
    assert run_experiment(s, "modulate").summary == {
        "max_ortho_residual": 6.424854978379964e-14,
        "max_offset": 7.80852156114556e-10,
        "max_w_h2": 2.5888219039098663e-06,
        "tolerance": 1e-10,
    }
    assert run_experiment(s, "monotonicity").summary == {
        "functionals": {
            "j1_Mj": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999697769047016,
                "final": 9.998807801128597,
            },
            "j1_weakened_F": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 30.83865602735891,
                "final": 30.833961455371238,
            },
            "j2_Mj": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999697769047016,
                "final": 10.00236125392714,
            },
            "j2_weakened_F": {
                "worst_drop": 0.0,
                "slack_bound": slack,
                "initial": 9.999786469931223,
                "final": 10.001936200470432,
            },
        },
        "coefficient_positivity": {"j1": True, "j2": True},
        "varpi": 0.0125,
        "C": 10.055732550689246,
        "worst_drop": 0.0,
    }
    summary = run_experiment(s, "rate-fit").summary
    assert summary.pop("note").startswith("distance measured on the 1-Phi_1 weighted region")
    assert summary == {
        "varpi": 0.010442315138530934,
        "C": 0.0021612573649231687,
        "r_squared": 0.9999999003441417,
        "fit_window": [0.005, 0.02],
        "varpi_calibrated": 0.0125,
        "scalar_product": {
            "j1": {"C_measured": 2.2485057827024463e-10, "max_scalar": 2.2475684465566318e-10},
            "j2": {"C_measured": 6.566093315241114e-14, "max_scalar": 6.566051596119095e-14},
            "j3": {"C_measured": 3.926309468517636e-10, "max_scalar": 3.9246908478916624e-10},
        },
        "global_distance_final": 0.002326625129765082,
    }


def test_monotonicity_computes_one_triple_per_snapshot_and_j(monkeypatch):
    # the four audited functionals share one localized triple
    calls = []
    triple = lyapunov.localized_triple

    def counted(*args):
        calls.append(args[2:])
        return triple(*args)

    monkeypatch.setattr(lyapunov, "localized_triple", counted)
    s = _flagship_every_step()
    T = len(lab._evolve_scenario(s).times)
    assert lab._run_monotonicity(s).passed
    assert T == 41
    assert len(calls) == (s.cfg.J - 1) * T
    assert len(set(calls)) == len(calls)


def test_resolved_config_is_built_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    calibrate = lab.calibrate_slack

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    monkeypatch.setattr(lab, "calibrate_slack", counted)
    monkeypatch.setattr(lab, "_config_text", {})
    rep = ExperimentReport(kind="demo", scenario="s", passed=True, summary={})
    s = parse_scenario(TWO_SOLITONS)
    for out in ("a", "b", "c"):
        write_report(s, rep, str(tmp_path / out))
    assert len(calls) == 1
    text = (tmp_path / "c" / "resolved-config.json").read_text()
    assert text == json.dumps(
        resolved_config(s), indent=2, sort_keys=True, default=lab._json_default
    ) + "\n"
    # equal scenarios that are written differently are not confused
    negative_zero = parse_scenario(TWO_SOLITONS.replace("c: 1.0}", "c: 1.0, x0: -0.0}"))
    assert negative_zero == s
    write_report(negative_zero, rep, str(tmp_path / "d"))
    assert '"x0": -0.0' in (tmp_path / "d" / "resolved-config.json").read_text()
    assert '"x0": -0.0' not in text


def test_emit_plot_data_columns(tmp_path):
    rep = ExperimentReport(
        kind="demo",
        scenario="s",
        passed=True,
        summary={},
        series={"series": {"t": [0.0, 1.0], "v": [2.0, 3.0]}, "empty": {}},
    )
    write_report(parse_scenario(MINIMAL), rep, str(tmp_path))
    lines = (tmp_path / "demo-series.dat").read_text().splitlines()
    assert lines[0] == "# t\tv"
    assert len(lines) == 3
    assert (tmp_path / "demo-empty.dat").read_text().startswith("#")


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
    """The data lab integrates, starting from an empty slot."""
    calls = []
    evolve = lab.evolve

    def counted(u0, controls):
        calls.append(u0)
        return evolve(u0, controls)

    monkeypatch.setattr(lab, "_slot", {})
    monkeypatch.setattr(lab, "evolve", counted)
    return calls


def test_all_kinds_integrate_each_datum_once(evolve_calls):
    # conservation, monotonicity and modulate share the profile sum's run;
    # rate-fit integrates its bumped datum
    s = parse_scenario(TWO_SOLITONS)
    for kind in EXPERIMENT_KINDS:
        assert run_experiment(s, kind).passed
    assert len(evolve_calls) == 2
    assert not np.array_equal(evolve_calls[0].values, evolve_calls[1].values)


def test_shared_trajectory_gives_the_artifacts_of_a_fresh_one(tmp_path, evolve_calls):
    s = parse_scenario(TWO_SOLITONS)
    kinds = ("conservation", "monotonicity", "modulate")
    for kind in kinds:
        run_experiment(s, kind, out_dir=str(tmp_path / "shared"))
    assert len(evolve_calls) == 1
    for kind in kinds:
        lab._slot.clear()
        run_experiment(s, kind, out_dir=str(tmp_path / "fresh"))
    assert len(evolve_calls) == 4
    names = sorted(os.listdir(tmp_path / "shared"))
    assert names == sorted(os.listdir(tmp_path / "fresh"))
    assert sum(n.endswith("-summary.json") for n in names) == 3
    assert sum(n.endswith(".dat") for n in names) == 4
    for name in names:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    # a consumer cannot write into the block the next kind reads
    traj = lab._evolve_scenario(s)
    assert len(evolve_calls) == 4
    with pytest.raises(ValueError):
        traj.values[0, 0] = 0.0

    # rate-fit's bumped datum replaces the profile sum's run
    run_experiment(s, "rate-fit")
    assert len(evolve_calls) == 5 and len(lab._slot) == 1
    run_experiment(s, "conservation")
    assert len(evolve_calls) == 6


def test_failed_integration_leaves_the_slot_empty(evolve_calls):
    s = parse_scenario(TWO_SOLITONS)
    run_experiment(s, "conservation")
    unstable = parse_scenario(TWO_SOLITONS.replace("dt: 1.0e-3", "dt: 0.1"))
    with pytest.raises(ValueError, match="CFL"):
        run_experiment(unstable, "conservation")
    assert lab._slot == {}
    assert len(evolve_calls) == 2


def _write(tmp_path, text):
    p = tmp_path / "scenario.yaml"
    p.write_text(text)
    return str(p)


def test_cli_pass_exit_code(tmp_path):
    path = _write(tmp_path, MINIMAL)
    assert main(["verify-exact", "--scenario", path]) == 0


def test_cli_invalid_scenario_exit_code(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("c: 1.0", "c: -1.0"))
    assert main(["verify-exact", "--scenario", path]) == 2


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
    [("grid.n", 1024.5, 1024.0), ("evolution.save_every", 1.7, 2.0), ("seed", 0.5, 3.0), ("objects.0.kappa", 1.5, 1.0)],
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
        ("grid={n: 1024}", "grid missing required fields ['half_length']"),
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
_BASE = yaml.safe_load(MINIMAL)
_PATHS = [
    "name", "objects", "objects.0", "objects.0.c", "objects.0.kind", "objects.1.c",
    "objects.x", "grid", "grid.n", "grid.half_length", "grid.n.x", "evolution.dt",
    "evolution.t_end", "sigma", "seed", "name.x", "",
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
