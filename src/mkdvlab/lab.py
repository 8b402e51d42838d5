"""Scenario parsing, experiment drivers, rate fitting, and persistence.

A scenario is a small YAML document naming the wave objects, the grid, the
evolution controls, the cutoff scale sigma and a seed.  Experiment kinds
reuse the computational modules and write deterministic artifacts: a JSON
summary (sorted keys, no timestamps), a resolved-config record with every
derived constant, and plain-text column files for plotting.  Derived state
lives on the parsed `Scenario`, computed once per instance and shared by the
kinds run on it, the run of the scenario's one datum included: every
integrating kind audits that run.  The module itself holds no mutable state.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import yaml

from .errors import NonPositiveDistance
from .evolution import EvolutionControls, Trajectory, evolve, pde_residual
from .functionals import weighted_integrals
from .grid import Grid, make_grid
from .lyapunov import (
    DROP_BUDGET,
    LyapunovParams,
    calibrate_slack,
    coercivity_check,
    monotonicity_report,
    select_parameters,
)
from .modulation import ModulationTrack, track_modulation
from .profiles import (
    Breather,
    OrderedConfiguration,
    Soliton,
    WaveObject,
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
    """Fully validated experiment description; `replace` starts with no derived state.

    Derived state is computed on first use and kept, unless computing it raises:
    the one run of the datum (`trajectory`), its one pass of (M, E, F) integrals
    (`integrals`) for conservation and monotonicity, and its one Newton pass of
    fits (`track`), which fits each snapshot once for both modulate and rate-fit.
    """

    name: str
    cfg: OrderedConfiguration
    grid: Grid
    controls: EvolutionControls
    sigma: float
    seed: int

    @cached_property
    def params(self) -> LyapunovParams:
        """The Lyapunov parameters of the whole configuration."""
        return select_parameters(self.cfg, self.sigma)

    @cached_property
    def slack(self) -> tuple[float, float]:
        """The calibrated (varpi, C) of the monotonicity audit."""
        return calibrate_slack(self.cfg, self.params, self.grid)

    @cached_property
    def config_text(self) -> str:
        """resolved-config.json's text, which every kind writes."""
        text = json.dumps(resolved_config(self), indent=2, sort_keys=True)
        return text + "\n"

    @cached_property
    def trajectory(self) -> Trajectory:
        """The run of the scenario's datum, shared by every integrating kind.

        The datum is the profile sum at t = 0 and, for J >= 2, the seeded bump
        in the largest gap: a solution near the sum, not the sum itself.  A lone
        object has no gap, so its datum is its bare profile.  The arrays are
        read-only, and a run that raises caches nothing.
        """
        u0 = profile_sum(self.cfg, 0.0, self.grid)
        if self.cfg.J > 1:
            u0 = u0 + localized_bump(self.grid, self.seed, _bump_center(self.cfg))
        traj = evolve(self.grid, u0, self.controls)
        traj.times.flags.writeable = False
        traj.values.flags.writeable = False
        return traj

    @cached_property
    def integrals(self) -> np.ndarray:
        """The read-only (T, K, 3) weighted_integrals rows of each snapshot that
        conservation (the last, whole-line row) and monotonicity read.  With v2 > 0
        the weights are Phi_1..Phi_J of `params`; otherwise the whole line alone, K = 1,
        so conservation audits a lone object without computing parameters."""
        traj, g = self.trajectory, self.grid
        fam = self.params.fam if self.cfg.positive_v2 else None
        rows = []
        for t, u in zip(traj.times, traj.values):
            weights = [fam.weight(j, t, g.x) for j in range(1, fam.J + 1)] if fam else (1.0,)
            rows.append(weighted_integrals(g, u, weights))
        out = np.array(rows)
        out.flags.writeable = False
        return out

    @cached_property
    def track(self) -> ModulationTrack:
        """The one pass of fits that modulate and rate-fit read: offsets, residuals
        and H^2 norms, not w, and, with v2 > 0, rate-fit's series.

        The series need the cutoff family of `params`, which exists exactly when
        v2 > 0.  A lone object or a v2 <= 0 configuration gets the fits alone, so
        modulate audits it without computing parameters.
        """
        fam = self.params.fam if self.cfg.positive_v2 else None
        return track_modulation(self.trajectory, self.cfg, fam)


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
    """A finite real scenario field, possibly written as a string such as '1e-3'.

    A boolean is invalid input, not 0 or 1; so is a list, a mapping or a
    string that is no number, and the message names the field.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _integer(value, name: str) -> int:
    """A whole-number scenario field: an int, or a number `_number` reads that is whole.

    4096.0 and '1e3' are whole; a fraction is invalid input, never truncated,
    and so is anything `_number` refuses.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    value = _number(value, name)
    if not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


# by a field's annotation, a string under `from __future__ import annotations`
_READERS = {"float": _number, "int": _integer}


def _build(cls, node, where: str):
    """cls from the mapping node, whose keys are cls's dataclass fields.

    A field without a default is required, an absent optional one takes its
    default, and any other key is invalid input.
    """
    fs = fields(cls)
    _fields(node, [f.name for f in fs if f.default is MISSING], [f.name for f in fs], where)
    present = [f for f in fs if f.name in node]
    return cls(**{f.name: _READERS[f.type](node[f.name], f"{where}.{f.name}") for f in present})


_OBJECT_KINDS = {"soliton": Soliton, "breather": Breather}


def _parse_object(entry, index: int):
    where = f"objects[{index}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a mapping")
    kind = entry.get("kind")
    # the str test first: a list or a mapping is unhashable, so no dict key
    if not isinstance(kind, str) or kind not in _OBJECT_KINDS:
        raise ValueError(f"{where}.kind must be 'soliton' or 'breather', got {kind!r}")
    return _build(_OBJECT_KINDS[kind], {k: v for k, v in entry.items() if k != "kind"}, where)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document; an unknown key is invalid input."""
    doc = yaml.safe_load(text)
    _fields(doc, ("name", "objects", "grid", "evolution"), ("sigma", "seed"), "scenario")
    objs = doc["objects"]
    if not isinstance(objs, list) or not objs:
        raise ValueError("objects must be a non-empty list")
    cfg = order_and_validate([_parse_object(o, i) for i, o in enumerate(objs)])
    g = _build(Grid, doc["grid"], "grid")
    controls = _build(EvolutionControls, doc["evolution"], "evolution")
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


def resolved_config(s: Scenario) -> dict:
    """Every derived constant the experiment will consume, for reproducibility."""
    record = {
        "name": s.name,
        "objects": [{"kind": type(o).__name__.lower(), **asdict(o)} for o in s.cfg.objects],
        "velocities": list(s.cfg.velocities),
        "shape_pairs": [list(p) for p in s.cfg.shape_pairs()],
        "positive_v1": s.cfg.positive_v1,
        "positive_v2": s.cfg.positive_v2,
        "grid": asdict(s.grid),
        "evolution": asdict(s.controls),
        "sigma": s.sigma,
        "seed": s.seed,
    }
    if s.cfg.positive_v2:
        p = s.params
        varpi, C = s.slack
        record.update(
            {
                "nu1": p.nu1,
                "nu": p.nu,
                "nu_prime": p.nu_prime,
                "nu2": p.nu2,
                "nu3": p.nu3,
                "speeds": list(p.fam.speeds),
                "sigma_effective": p.fam.sigma,
                "tau0": p.fam.tau0,
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
    r_squared: float
    samples: int  # in the window; with two the line passes through both and r^2 is 1


def fit_exponential_rate(times, distances, window) -> RateFit:
    """Fit log(distance) linearly in t over [window[0], window[1]]."""
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    ta, tb = float(window[0]), float(window[1])
    mask = (times >= ta) & (times <= tb)
    if mask.sum() < 2:
        raise ValueError(
            f"fit window [{ta:.6g}, {tb:.6g}] holds {mask.sum()} sample(s); "
            "the rate fit needs at least two"
        )
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
        r_squared=float(r2),
        samples=int(mask.sum()),
    )


def localized_bump(g: Grid, seed: int, center: float) -> np.ndarray:
    """Seeded smooth localized perturbation: a height-1e-3 Gaussian, jittered center/width.

    The seed draws the Gaussian's centre uniformly in [center - 2, center + 2)
    and its standard deviation in [1.5, 3).

    The distance to the center is periodic, x - x0 wrapped into [-L, L), so a bump
    near the edge of the domain continues across it instead of jumping there.
    """
    # two draws need no numpy.random: its first use loads hashlib, secrets and
    # OpenSSL, about 6 MB of resident memory; random() keeps its sequence per seed
    rng = random.Random(seed)
    x0 = center + 4.0 * rng.random() - 2.0
    width = 1.5 + 1.5 * rng.random()
    L = g.half_length
    d = g.x - x0
    d -= 2.0 * L * np.floor((d + L) / (2.0 * L))
    return 1e-3 * np.exp(-(d**2) / (2.0 * width**2))


def _bump_center(cfg: OrderedConfiguration) -> float:
    """Midpoint of the largest gap between the J >= 2 object centers at t=0.

    A bump overlapping an object permanently perturbs its shape parameters,
    which translation-only modulation cannot absorb; in a gap it disperses
    as pure radiation.
    """
    cs = sorted(center(o, 0.0) for o in cfg.objects)
    gaps = [(b - a, 0.5 * (a + b)) for a, b in zip(cs, cs[1:])]
    return max(gaps)[1]


@dataclass
class ExperimentReport:
    """Outcome of one run_experiment call."""

    kind: str
    passed: bool
    summary: dict
    series: dict = field(default_factory=dict)  # name -> dict of equal-length columns


def _run_verify_exact(s: Scenario) -> ExperimentReport:
    residuals = {}
    for i, o in enumerate(s.cfg.objects):
        res = pde_residual([o], 0.0, s.grid)
        residuals[f"object_{i}_{type(o).__name__.lower()}"] = res
    worst = max(residuals.values())
    return ExperimentReport(
        kind="verify-exact",
        passed=worst < RESIDUAL_TOL,
        summary={"residuals": residuals, "worst": worst, "tolerance": RESIDUAL_TOL},
    )


def _run_conservation(s: Scenario) -> ExperimentReport:
    traj = s.trajectory
    vals = s.integrals[:, -1] * (0.5, 1.0, 1.0)  # (T, 3): M = (1/2) int u^2, E, F
    scale = np.maximum(np.abs(vals[0]), 1e-30)
    drifts = dict(zip("MEF", map(float, np.max(np.abs(vals - vals[0]), axis=0) / scale)))
    worst = max(drifts.values())
    return ExperimentReport(
        kind="conservation",
        passed=worst < DRIFT_TOL,
        summary={"drifts": drifts, "worst": worst, "tolerance": DRIFT_TOL},
        series={"conserved": {"t": traj.times, **dict(zip("MEF", vals.T))}},
    )


def _run_monotonicity(s: Scenario) -> ExperimentReport:
    varpi, C = s.slack
    traj = s.trajectory
    trips = s.integrals[:, :-1]  # Phi_1..Phi_{J-1}; the last row is the whole line
    values, slack, drops = monotonicity_report(trips, traj.times, s.params, varpi=varpi, C=C)
    reports = {}
    series = {}
    for k, j in enumerate(range(1, s.cfg.J)):
        for w, which in enumerate(("Mj", "weakened_F")):
            key = f"j{j}_{which}"
            column = values[:, k, w]
            reports[key] = {
                "worst_drop": float(drops[k, w]),
                "slack_bound": float(slack[0]),
                "initial": float(column[0]),
                "final": float(column[-1]),
            }
            series[key] = {"t": traj.times, "value": column}
    worst = float(drops.max())
    return ExperimentReport(
        kind="monotonicity",
        passed=worst == 0.0,
        summary={
            "functionals": reports,
            "varpi": varpi,
            "C": C,
            "worst_drop": worst,
        },
        series=series,
    )


def _run_modulate(s: Scenario) -> ExperimentReport:
    traj, track = s.trajectory, s.track
    max_res = float(np.max(np.abs(track.ortho_residuals)))
    series = {
        "modulation": {
            "t": traj.times,
            "w_h2": track.w_h2,
            **{f"offset_{k}": col for k, col in enumerate(track.offsets.T)},
        }
    }
    return ExperimentReport(
        kind="modulate",
        passed=max_res < ORTHO_TOL,
        summary={
            "max_ortho_residual": max_res,
            "max_offset": float(np.max(np.abs(track.offsets))),
            "max_w_h2": float(np.max(track.w_h2)),
            "tolerance": ORTHO_TOL,
        },
        series=series,
    )


def _coercivity_setup(
    o: WaveObject, sigma: float, n: int
) -> tuple[WaveObject, LyapunovParams, Grid]:
    """(object, parameters, grid) on which the coercivity kind checks o.

    The object is o re-centred at the origin, so the dense grid of n nodes
    can stay small; a translation shifts a breather's x1 and x2 alike.  The
    parameters are o's own as a lone object, which has no cutoff (Phi_1 = 1),
    hence override=True.
    """
    if isinstance(o, Soliton):
        centered = replace(o, x0=0.0)
    else:
        centered = replace(o, x1=o.x1 - o.x2, x2=0.0)
    p1 = select_parameters(order_and_validate([o]), sigma, override=True)
    return centered, p1, make_grid(max(20.0, 8.0 / shape_pair(o)[1]), n)


def _run_coercivity(s: Scenario) -> ExperimentReport:
    # the check only needs to resolve the profile, not the full run
    n_eig = min(s.grid.n, 512)
    results = {}
    ok = True
    for idx, o in enumerate(s.cfg.objects):
        centered, p1, g = _coercivity_setup(o, s.sigma, n_eig)
        res = coercivity_check(centered, p1, 1, g)
        # mu* moved in its 13th digit between Lanczos and a dense eigensolve, and a
        # soliton's lambda_min_raw is zero to round-off: 8 decimals keep the summary
        # byte-stable.  mu rounds down, so the written value stays certified; + 0.0
        # turns -0.0 into 0.0
        results[f"object_{idx}"] = {
            "mu": float(np.floor(res.mu * 1e8)) / 1e8,
            "lambda_min_raw": round(res.lambda_min_raw, 8) + 0.0,
            "n": g.n,
        }
        ok = ok and res.mu > 0
    return ExperimentReport(
        kind="coercivity",
        passed=ok,
        summary={"results": results},
    )


def _run_rate_fit(s: Scenario) -> ExperimentReport:
    varpi_hat, _ = s.slack
    traj, track = s.trajectory, s.track
    # radiation has nonpositive group velocity, so it leaves the rightward-moving
    # window 1 - Phi_{J-1} of the windowed distance
    windowed = track.windowed
    t_end = float(traj.times[-1])
    window = [0.25 * t_end, t_end]
    fit = fit_exponential_rate(traj.times, windowed, window)

    sp = {}
    decay = np.exp(-2.0 * fit.varpi * traj.times)
    for j, (scalar, quadratic) in enumerate(zip(track.scalar, track.quadratic), start=1):
        sp[f"j{j}"] = {
            "C_measured": float(np.max(scalar / (decay + quadratic))),
            "max_scalar": float(np.max(scalar)),
        }
    series = {
        "rate": {
            "t": traj.times,
            "windowed_distance": windowed,
            "global_w_h2": track.w_h2,
            "fit_line": [fit.C * np.exp(-fit.varpi * t) for t in traj.times],
        }
    }
    passed = fit.varpi > 0 and fit.r_squared > RATE_R2_TOL
    return ExperimentReport(
        kind="rate-fit",
        passed=passed,
        summary={
            "varpi": fit.varpi,
            "C": fit.C,
            "r_squared": fit.r_squared,
            "fit_samples": fit.samples,
            "fit_window": window,
            "varpi_calibrated": varpi_hat,
            "scalar_product": sp,
            "global_distance_final": float(track.w_h2[-1]),
            "note": f"distance measured on the 1-Phi_{s.cfg.J - 1} weighted region; the global "
            "residual cannot decay on a periodic domain because radiation never leaves",
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


def write_report(s: Scenario, report: ExperimentReport, out_dir: str):
    """Persist summary, resolved config, and plot columns under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "kind": report.kind,
        "scenario": s.name,
        "passed": report.passed,
        **report.summary,
    }
    with open(os.path.join(out_dir, f"{report.kind}-summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out_dir, "resolved-config.json"), "w") as f:
        f.write(s.config_text)
    # one whitespace-separated column file per tracked series
    for name, cols in report.series.items():
        path = os.path.join(out_dir, f"{report.kind}-{name}.dat")
        keys = list(cols)
        # built before the file opens, so unequal columns raise and write nothing
        rows = list(zip(*(cols[k] for k in keys), strict=True))
        with open(path, "w") as f:
            f.write("# " + "\t".join(keys) + "\n")
            for row in rows:
                f.write("\t".join(f"{float(v):.12e}" for v in row) + "\n")
