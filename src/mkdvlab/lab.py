"""Scenario parsing, experiment drivers, rate fitting, and persistence.

A scenario is a small YAML document naming the wave objects, the grid, the
evolution controls, the cutoff scale sigma and a seed.  Experiment kinds
reuse the computational modules and write deterministic artifacts: a JSON
summary (sorted keys, no timestamps), a resolved-config record with every
derived constant, and plain-text column files for plotting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import NonPositiveDistance
from .evolution import EvolutionControls, Trajectory, evolve, pde_residual
from .functionals import energy, mass, second_energy
from .grid import Field, Grid, integrate, make_field, make_grid, spectral_derivative
from .lyapunov import (
    DROP_BUDGET,
    calibrate_slack,
    coefficient_positivity,
    coercivity_check,
    monotonicity_report,
    select_parameters,
)
from .modulation import scalar_product_series, track_modulation
from .profiles import (
    Breather,
    OrderedConfiguration,
    Soliton,
    center,
    check_tails,
    order_and_validate,
    profile_sum,
    shape_pair,
)

RESIDUAL_TOL = 1e-7
DRIFT_TOL = 1e-6
ORTHO_TOL = 1e-10
RATE_R2_TOL = 0.9


@dataclass(frozen=True)
class Scenario:
    """Fully validated experiment description."""

    name: str
    cfg: OrderedConfiguration
    grid: Grid
    controls: EvolutionControls
    sigma: float
    seed: int


def _fields(node, required, optional, where: str) -> dict:
    """node as a mapping with every required key and no key outside required and optional."""
    if not isinstance(node, dict):
        raise ValueError(f"{where} must be a mapping")
    extra = set(node) - set(required) - set(optional)
    if extra:
        raise ValueError(f"{where} has unknown fields {sorted(extra, key=str)}")
    missing = set(required) - set(node)
    if missing:
        raise ValueError(f"{where} missing required fields {sorted(missing)}")
    return node


def _number(value, name: str) -> float:
    """A finite real scenario field; a boolean is invalid input, not 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _integer(value, name: str) -> int:
    """A whole-number scenario field: an int or an integral float such as 4096.0.

    A fraction is invalid input, never truncated; so is an infinity, a NaN
    or a boolean.
    """
    if isinstance(value, (bool, float)):
        value = _number(value, name)
        if not value.is_integer():
            raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


_OBJECT_FIELDS = {  # (required, optional) per kind
    "soliton": (("kind", "c"), ("kappa", "x0")),
    "breather": (("kind", "alpha", "beta"), ("x1", "x2")),
}


def _parse_object(entry, index: int):
    where = f"objects[{index}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a mapping")
    kind = entry.get("kind")
    if kind not in _OBJECT_FIELDS:
        raise ValueError(f"{where}.kind must be 'soliton' or 'breather', got {kind!r}")
    _fields(entry, *_OBJECT_FIELDS[kind], where)
    if kind == "soliton":
        return Soliton(
            c=_number(entry["c"], f"{where}.c"),
            kappa=_integer(entry.get("kappa", 1), f"{where}.kappa"),
            x0=_number(entry.get("x0", 0.0), f"{where}.x0"),
        )
    return Breather(
        alpha=_number(entry["alpha"], f"{where}.alpha"),
        beta=_number(entry["beta"], f"{where}.beta"),
        x1=_number(entry.get("x1", 0.0), f"{where}.x1"),
        x2=_number(entry.get("x2", 0.0), f"{where}.x2"),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document; an unknown key is invalid input."""
    doc = yaml.safe_load(text)
    _fields(doc, ("name", "objects", "grid", "evolution"), ("sigma", "seed"), "scenario")
    objs = doc["objects"]
    if not isinstance(objs, list) or not objs:
        raise ValueError("objects must be a non-empty list")
    cfg = order_and_validate([_parse_object(o, i) for i, o in enumerate(objs)])
    gspec = _fields(doc["grid"], ("half_length", "n"), (), "grid")
    g = make_grid(
        _number(gspec["half_length"], "grid.half_length"), _integer(gspec["n"], "grid.n")
    )
    espec = _fields(doc["evolution"], ("dt", "t_end"), ("save_every",), "evolution")
    controls = EvolutionControls(
        dt=_number(espec["dt"], "evolution.dt"),
        t_end=_number(espec["t_end"], "evolution.t_end"),
        save_every=_integer(espec.get("save_every", 1), "evolution.save_every"),
    )
    sigma = _number(doc.get("sigma", 0.01), "sigma")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ValueError(f"name must be a non-empty string, got {name!r}")
    s = Scenario(
        name=name,
        cfg=cfg,
        grid=g,
        controls=controls,
        sigma=sigma,
        seed=seed,
    )
    check_tails(cfg, 0.0, g)
    return s


def _object_record(o) -> dict:
    if isinstance(o, Soliton):
        return {"kind": "soliton", "c": o.c, "kappa": o.kappa, "x0": o.x0}
    return {"kind": "breather", "alpha": o.alpha, "beta": o.beta, "x1": o.x1, "x2": o.x2}


def resolved_config(s: Scenario) -> dict:
    """Every derived constant the experiment will consume, for reproducibility."""
    record = {
        "name": s.name,
        "objects": [_object_record(o) for o in s.cfg.objects],
        "velocities": list(s.cfg.velocities),
        "shape_pairs": [list(p) for p in s.cfg.shape_pairs()],
        "positive_v1": s.cfg.positive_v1,
        "positive_v2": s.cfg.positive_v2,
        "grid": {"half_length": s.grid.half_length, "n": s.grid.n},
        "evolution": {
            "dt": s.controls.dt,
            "t_end": s.controls.t_end,
            "save_every": s.controls.save_every,
        },
        "sigma": s.sigma,
        "seed": s.seed,
    }
    if s.cfg.positive_v2:
        p = select_parameters(s.cfg, s.sigma)
        varpi, C = calibrate_slack(s.cfg, p, s.grid)
        record.update(
            {
                "nu1": p.nu1,
                "nu": p.nu,
                "nu_prime": p.nu_prime,
                "nu2": p.nu2,
                "nu3": p.nu3,
                "speeds": list(p.fam.speeds),
                "sigma_effective": p.fam.sigma,
                "tau0": p.fam.tau0 if np.isfinite(p.fam.tau0) else None,
                "omega": p.default_omega(),
                "varpi_hat": varpi,
                "C_hat": C,
                "drop_budget": DROP_BUDGET,
            }
        )
    return record


@dataclass
class RateFit:
    """Least-squares exponential fit distance ~ C exp(-varpi t) on a window."""

    varpi: float
    C: float
    fit_window: tuple[float, float]
    r_squared: float


def fit_exponential_rate(times, distances, window) -> RateFit:
    """Fit log(distance) linearly in t over [window[0], window[1]]."""
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    ta, tb = float(window[0]), float(window[1])
    mask = (times >= ta) & (times <= tb)
    if mask.sum() < 2:
        raise ValueError("fit window must contain at least two samples")
    tw = times[mask]
    dw = distances[mask]
    if np.any(dw <= 0):
        raise NonPositiveDistance(
            f"nonpositive distance inside the fit window [{ta}, {tb}]"
        )
    logd = np.log(dw)
    slope, intercept = np.polyfit(tw, logd, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - np.mean(logd)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return RateFit(
        varpi=float(-slope),
        C=float(np.exp(intercept)),
        fit_window=(ta, tb),
        r_squared=float(r2),
    )


def localized_bump(g: Grid, seed: int, center: float = 0.0) -> Field:
    """Seeded smooth localized perturbation: a height-1e-3 Gaussian, jittered center/width."""
    rng = np.random.default_rng(seed)
    x0 = center + rng.uniform(-2.0, 2.0)
    width = rng.uniform(1.5, 3.0)
    return make_field(g, 1e-3 * np.exp(-((g.x - x0) ** 2) / (2.0 * width**2)))


def _bump_center(cfg: OrderedConfiguration) -> float:
    """Midpoint of the largest gap between object centers at t=0.

    A bump overlapping an object permanently perturbs its shape parameters,
    which translation-only modulation cannot absorb; in a gap it disperses
    as pure radiation.
    """
    cs = sorted(center(o, 0.0) for o in cfg.objects)
    if len(cs) == 1:
        return cs[0] + 25.0
    gaps = [(b - a, 0.5 * (a + b)) for a, b in zip(cs, cs[1:])]
    return max(gaps)[1]


@dataclass
class ExperimentReport:
    """Outcome of one run_experiment call."""

    kind: str
    scenario: str
    passed: bool
    summary: dict
    series: dict = field(default_factory=dict)  # name -> dict of equal-length columns


# the most recent integration, at most one entry: (grid, controls, datum bytes) -> Trajectory
_slot: dict = {}


def _integrate(u0: Field, controls: EvolutionControls) -> Trajectory:
    """evolve(u0, controls), reused while the grid, controls and datum stay the same bit for bit.

    The kinds of `mkdvlab all` each call run_experiment and integrate the same
    profile sum, so one slot serves them all; evolve is deterministic, so a hit
    returns what a fresh call would.  A miss empties the slot before
    integrating: at most one trajectory is held, and a run that raises leaves
    nothing behind.  The stored arrays are read-only, so a consumer that
    writes into them fails loudly instead of corrupting a later kind.
    """
    key = (u0.grid, controls, u0.values.tobytes())
    if key not in _slot:
        _slot.clear()
        traj = evolve(u0, controls)
        traj.times.flags.writeable = False
        traj.values.flags.writeable = False
        _slot[key] = traj
    return _slot[key]


def _evolve_scenario(s: Scenario) -> Trajectory:
    return _integrate(profile_sum(s.cfg, 0.0, s.grid), s.controls)


def _run_verify_exact(s: Scenario) -> ExperimentReport:
    residuals = {}
    for i, o in enumerate(s.cfg.objects):
        res = pde_residual([o], 0.0, s.grid)
        residuals[f"object_{i}_{type(o).__name__.lower()}"] = res
    worst = max(residuals.values())
    return ExperimentReport(
        kind="verify-exact",
        scenario=s.name,
        passed=worst < RESIDUAL_TOL,
        summary={"residuals": residuals, "worst": worst, "tolerance": RESIDUAL_TOL},
    )


def _run_conservation(s: Scenario) -> ExperimentReport:
    traj = _evolve_scenario(s)
    series = {"t": traj.times, "M": [], "E": [], "F": []}
    for row in traj.values:
        u = make_field(traj.grid, row)
        series["M"].append(mass(u))
        series["E"].append(energy(u))
        series["F"].append(second_energy(u))
    drifts = {}
    for name in ("M", "E", "F"):
        vals = np.asarray(series[name])
        scale = max(abs(vals[0]), 1e-30)
        drifts[name] = float(np.max(np.abs(vals - vals[0])) / scale)
    worst = max(drifts.values())
    return ExperimentReport(
        kind="conservation",
        scenario=s.name,
        passed=worst < DRIFT_TOL,
        summary={"drifts": drifts, "worst": worst, "tolerance": DRIFT_TOL},
        series={"conserved": series},
    )


def _run_monotonicity(s: Scenario) -> ExperimentReport:
    p = select_parameters(s.cfg, s.sigma)
    varpi, C = calibrate_slack(s.cfg, p, s.grid)
    traj = _evolve_scenario(s)
    reports = {}
    series = {}
    worst = 0.0
    tracked_j = list(range(1, s.cfg.J)) or [1]
    for j in tracked_j:
        reps = monotonicity_report(traj, j, p, varpi=varpi, C=C)
        for which in ("Mj", "weakened_F"):
            rep = reps[which]
            key = f"j{j}_{which}"
            reports[key] = {
                "worst_drop": rep.worst_drop,
                "slack_bound": rep.slack_bound,
                "initial": rep.values[0],
                "final": rep.values[-1],
            }
            series[key] = {"t": rep.times, "value": rep.values}
            worst = max(worst, rep.worst_drop)
    coef = {
        f"j{j}": coefficient_positivity(p, j).all_hold for j in range(1, s.cfg.J)
    }
    return ExperimentReport(
        kind="monotonicity",
        scenario=s.name,
        passed=worst == 0.0 and all(coef.values() if coef else [True]),
        summary={
            "functionals": reports,
            "coefficient_positivity": coef,
            "varpi": varpi,
            "C": C,
            "worst_drop": worst,
        },
        series=series,
    )


def _run_modulate(s: Scenario) -> ExperimentReport:
    traj = _evolve_scenario(s)
    track = track_modulation(traj, s.cfg)
    max_res = float(np.max(np.abs(track.ortho_residuals)))
    series = {
        "modulation": {
            "t": track.times,
            "w_h2": track.w_h2,
            **{f"offset_{k}": col for k, col in enumerate(track.offsets.T)},
        }
    }
    return ExperimentReport(
        kind="modulate",
        scenario=s.name,
        passed=max_res < ORTHO_TOL,
        summary={
            "max_ortho_residual": max_res,
            "max_offset": float(np.max(np.abs(track.offsets))),
            "max_w_h2": float(np.max(track.w_h2)),
            "tolerance": ORTHO_TOL,
        },
        series=series,
    )


def _run_coercivity(s: Scenario) -> ExperimentReport:
    # the dense eigensolve only needs to resolve the profile, not the full run
    n_eig = min(s.grid.n, 512)
    results = {}
    ok = True
    for idx, o in enumerate(s.cfg.objects):
        single = order_and_validate([o])
        p1 = select_parameters(single, s.sigma, override=True)
        a, b = shape_pair(o)
        g = make_grid(max(20.0, 8.0 / b), n_eig)
        # re-center the profile so the dense grid can stay small
        centered = replace(o, x0=0.0) if isinstance(o, Soliton) else replace(o, x1=0.0, x2=0.0)
        res = coercivity_check(centered, p1, 1, g)
        results[f"object_{idx}"] = {
            "mu": res.mu,
            # zero to round-off for a soliton; 8 decimals keep the summary
            # byte-stable across summation orders, and + 0.0 turns -0.0 into 0.0
            "lambda_min_raw": round(res.lambda_min_raw, 8) + 0.0,
            "n": g.n,
        }
        ok = ok and res.mu > 0
    return ExperimentReport(
        kind="coercivity",
        scenario=s.name,
        passed=ok,
        summary={"results": results},
    )


def _windowed_distance(w: np.ndarray, g: Grid, fam, t: float) -> float:
    """H^2-type distance weighted by 1 - Phi_{J-1} (the fastest co-moving window).

    Radiation has nonpositive group velocity, so it exits this rightward-
    moving region; the global residual cannot decay on a periodic domain.
    """
    one_minus = 1.0 - fam.weight(fam.J - 1, t, g.x) if fam.J > 1 else np.ones(g.n)
    wf = make_field(g, w)
    wx = spectral_derivative(wf, 1).values
    wxx = spectral_derivative(wf, 2).values
    return float(np.sqrt(integrate(g, (w**2 + wx**2 + wxx**2) * one_minus)))


def _run_rate_fit(s: Scenario) -> ExperimentReport:
    p = select_parameters(s.cfg, s.sigma)
    varpi_hat, _ = calibrate_slack(s.cfg, p, s.grid)
    u0 = profile_sum(s.cfg, 0.0, s.grid)
    bump = localized_bump(s.grid, s.seed, center=_bump_center(s.cfg))
    u0 = make_field(s.grid, u0.values + bump.values)
    traj = _integrate(u0, s.controls)
    track = track_modulation(traj, s.cfg)
    windowed = [_windowed_distance(w, s.grid, p.fam, t) for t, w in zip(track.times, track.w)]
    t_end = track.times[-1]
    window = (0.25 * t_end, t_end)
    fit = fit_exponential_rate(track.times, windowed, window)

    sp = {}
    for j in range(1, s.cfg.J + 1):
        d = scalar_product_series(track, s.cfg, p.fam, j)
        envelope = np.exp(-2.0 * fit.varpi * np.asarray(d["times"])) + np.asarray(
            d["quadratic"]
        )
        sp[f"j{j}"] = {
            "C_measured": float(np.max(d["scalar"] / envelope)),
            "max_scalar": float(np.max(d["scalar"])),
        }
    series = {
        "rate": {
            "t": track.times,
            "windowed_distance": windowed,
            "global_w_h2": track.w_h2,
            "fit_line": [fit.C * np.exp(-fit.varpi * t) for t in track.times],
        }
    }
    passed = fit.varpi > 0 and fit.r_squared > RATE_R2_TOL
    return ExperimentReport(
        kind="rate-fit",
        scenario=s.name,
        passed=passed,
        summary={
            "varpi": fit.varpi,
            "C": fit.C,
            "r_squared": fit.r_squared,
            "fit_window": list(fit.fit_window),
            "varpi_calibrated": varpi_hat,
            "scalar_product": sp,
            "global_distance_final": float(track.w_h2[-1]),
            "note": "distance measured on the 1-Phi_1 weighted region; the "
            "global residual cannot decay on a periodic domain because "
            "radiation never leaves",
        },
        series=series,
    )


_KINDS = {
    "verify-exact": _run_verify_exact,
    "conservation": _run_conservation,
    "monotonicity": _run_monotonicity,
    "modulate": _run_modulate,
    "coercivity": _run_coercivity,
    "rate-fit": _run_rate_fit,
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(s: Scenario, kind: str, out_dir: str | None = None) -> ExperimentReport:
    """Run one experiment kind and optionally persist its artifacts."""
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    report = _KINDS[kind](s)
    if out_dir is not None:
        write_report(s, report, out_dir)
    return report


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


# resolved-config.json's text for the most recent scenario, at most one entry: repr(s) -> text
_config_text: dict = {}


def _resolved_config_text(s: Scenario) -> str:
    """resolved_config(s) as JSON text, serialized once while the scenario stays the same.

    Every kind writes the record, and building it reruns select_parameters and
    calibrate_slack.  The key is repr(s), not s: -0.0 == 0.0, but the two are
    written differently.
    """
    key = repr(s)
    if key not in _config_text:
        _config_text.clear()
        text = json.dumps(resolved_config(s), indent=2, sort_keys=True, default=_json_default)
        _config_text[key] = text + "\n"
    return _config_text[key]


def write_report(s: Scenario, report: ExperimentReport, out_dir: str):
    """Persist summary, resolved config, and plot columns under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "kind": report.kind,
        "scenario": report.scenario,
        "passed": report.passed,
        **report.summary,
    }
    with open(os.path.join(out_dir, f"{report.kind}-summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    with open(os.path.join(out_dir, "resolved-config.json"), "w") as f:
        f.write(_resolved_config_text(s))
    # one whitespace-separated column file per tracked series
    for name, cols in report.series.items():
        path = os.path.join(out_dir, f"{report.kind}-{name}.dat")
        keys = list(cols)
        rows = zip(*(cols[k] for k in keys)) if keys else []
        with open(path, "w") as f:
            f.write("# " + "\t".join(keys) + "\n")
            for row in rows:
                f.write("\t".join(f"{float(v):.12e}" for v in row) + "\n")
