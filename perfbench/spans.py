"""Spans and counters recorded around mkdvlab's public functions.

Importing this module changes nothing.  `Tracer.install` replaces each public
function of the package's modules by a recording wrapper, at every module
name that binds it: `from .evolution import evolve` binds `evolve` in
`mkdvlab.lab` too, and `lab` looks it up there, so wrapping only
`mkdvlab.evolution.evolve` would miss every call that matters.  Spans stay in
memory (name, start, end, parent, run id) and are written once, by `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

PACKAGE = "mkdvlab"
LAYERS = ("profiles", "grid", "evolution", "functionals", "modulation", "lyapunov", "lab", "cli")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _tag_kind(fn, args, kwargs):
    return _bound(fn, args, kwargs)["kind"]


def _tag_n(fn, args, kwargs):
    return _bound(fn, args, kwargs)["g"].n


def _count_evolve(counters, fn, args, kwargs, traj):
    dt = _bound(fn, args, kwargs)["controls"].dt
    counters["evolution.steps"] += round((traj.times[-1] - traj.times[0]) / dt)
    counters["evolution.snapshots"] += len(traj.times)


def _count_newton(counters, fn, args, kwargs, state):
    counters["modulation.newton_iters"] += state.iterations


def _count_written(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    out_dir, kind = a["out_dir"], a["report"].kind
    for name in os.listdir(out_dir):
        if name.startswith(kind + "-") or name == "resolved-config.json":
            counters["lab.bytes_written"] += os.path.getsize(os.path.join(out_dir, name))


# span tag (which kind, which grid size) and counters taken from the call
_TAGS = {"lab.run_experiment": _tag_kind, "lyapunov.coercivity_check": _tag_n}
_COUNTS = {
    "evolution.evolve": _count_evolve,
    "modulation.fit_translations": _count_newton,
    "lab.write_report": _count_written,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.tags: list = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []  # no enclosing span has the same name
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list = []

    def install(self):
        wrappers = {}
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or not fn.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tag_of = _TAGS.get(name)
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.tags.append(tag_of(fn, args, kwargs) if tag_of else None)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.outer.append(self._open[name] == 0)
            self.ends.append(0.0)
            self._open[name] += 1
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if count:
                count(self.counters, fn, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id", "tag"],
                    "spans": [
                        [n, s, e, p, self.run_id, t]
                        for n, s, e, p, t in zip(
                            self.names, self.starts, self.ends, self.parents, self.tags
                        )
                    ],
                    "counters": dict(self.counters),
                },
                f,
            )

    def layer_metrics(self) -> dict:
        """Per-layer counts and seconds, named `<module>.<function>.<quantity>`.

        Per-kind and per-size seconds appear only for the kinds and sizes that
        ran; the runner reports the others as 0.
        """
        calls = Counter(self.names)
        secs = Counter()  # inclusive time of outermost spans, per name
        tagged = Counter()  # inclusive time per (name, tag)
        child_s = Counter()  # time covered by direct children, per span
        fit_us = []
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            if self.outer[i]:
                secs[name] += d
                tagged[name, self.tags[i]] += d
            if self.parents[i] >= 0:
                child_s[self.parents[i]] += d
            if name == "modulation.fit_translations":
                fit_us.append(1e6 * d)
        runs = [i for i, n in enumerate(self.names) if n == "lab.run_experiment"]
        self_s = sum(self.ends[i] - self.starts[i] - child_s[i] for i in runs)
        steps = self.counters["evolution.steps"]
        conserved = ("functionals.mass", "functionals.energy", "functionals.second_energy")
        m = {
            "evolution.evolve.calls": calls["evolution.evolve"],
            "evolution.evolve.s": secs["evolution.evolve"],
            "evolution.steps": steps,
            "evolution.snapshots": self.counters["evolution.snapshots"],
            "evolution.step_ms": 1e3 * secs["evolution.evolve"] / steps if steps else 0.0,
            "functionals.localized_triple.calls": calls["functionals.localized_triple"],
            "functionals.localized_triple.s": secs["functionals.localized_triple"],
            "functionals.conserved.calls": sum(calls[n] for n in conserved),
            "functionals.conserved.s": sum(secs[n] for n in conserved),
            "grid.spectral_derivative.calls": calls["grid.spectral_derivative"],
            "grid.spectral_derivative.s": secs["grid.spectral_derivative"],
            "grid.make_field.calls": calls["grid.make_field"],
            "grid.make_field.s": secs["grid.make_field"],
            "modulation.fit_translations.calls": calls["modulation.fit_translations"],
            "modulation.fit_translations.s": secs["modulation.fit_translations"],
            "modulation.fit_translations.us_p50": float(np.percentile(fit_us, 50)) if fit_us else 0.0,
            "modulation.fit_translations.us_p99": float(np.percentile(fit_us, 99)) if fit_us else 0.0,
            "modulation.newton_iters": self.counters["modulation.newton_iters"],
            "modulation.track_modulation.s": secs["modulation.track_modulation"],
            "modulation.scalar_product_series.s": secs["modulation.scalar_product_series"],
            "profiles.eval_object.calls": calls["profiles.eval_object"],
            "profiles.eval_object.s": secs["profiles.eval_object"],
            "lyapunov.monotonicity_report.s": secs["lyapunov.monotonicity_report"],
            "lyapunov.calibrate_slack.calls": calls["lyapunov.calibrate_slack"],
            "lyapunov.calibrate_slack.s": secs["lyapunov.calibrate_slack"],
            "lyapunov.select_parameters.calls": calls["lyapunov.select_parameters"],
            "lab.write_report.s": secs["lab.write_report"],
            "lab.bytes_written": self.counters["lab.bytes_written"],
            "lab.self_s": self_s,
        }
        for (name, tag), d in tagged.items():
            if name == "lyapunov.coercivity_check":
                m[f"lyapunov.coercivity_check.n{tag}_s"] = d
            elif name == "lab.run_experiment":
                m[f"lab.run_experiment.{tag}.s"] = d
        return m
