"""Every function and method in mkdvlab is reached by a kind, and every
defaulted parameter is set by one, with no exceptions.

`mkdvlab all` runs on the flagship, the lone soliton and the lone breather,
the J = 3 and J = 1 paths, under sys.setprofile.  A lone object has no cutoff,
so monotonicity and rate-fit refuse both lone runs: the CLI's failure path.
A function, public or private, that no kind calls is dead code, or a
test-only reference that belongs in tests/oracles.py.  A defaulted parameter
that no kind passes a value other than its default is an option nobody sets.
A probe injected into a src module for the same runs is the negative control:
the guard must report it and its parameter, and nothing else.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import mkdvlab
from mkdvlab import cli, lyapunov

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _defined_functions():
    """Each module-level function and method (properties included) defined in
    mkdvlab, by dotted name; dunder methods excluded."""
    out = {}
    for info in pkgutil.iter_modules(mkdvlab.__path__):
        mod = importlib.import_module(f"mkdvlab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    # properties, cached properties, static and class methods
                    fn = getattr(member, "fget", None) or getattr(member, "func", member)
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn):
                        out[f"{info.name}.{name}.{attr}"] = fn
    return out


def _probe(x, scale=1.0):
    """No kind calls this, and none could set scale."""
    return scale * x


def test_every_function_is_reached_by_a_kind(tmp_path, monkeypatch):
    probe = "lyapunov._probe"
    monkeypatch.setattr(_probe, "__module__", lyapunov.__name__)
    monkeypatch.setattr(lyapunov, "_probe", _probe, raising=False)
    defined = _defined_functions()
    assert probe in defined
    # code object -> (function, parameter, default) of each defaulted parameter
    defaulted = {
        fn.__code__: [
            (name, p.name, p.default)
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty
        ]
        for name, fn in defined.items()
    }
    called, set_by_a_kind = set(), set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            for name, param, default in defaulted.get(frame.f_code, ()):
                if frame.f_locals[param] is not default:
                    set_by_a_kind.add(f"{name}.{param}")

    overrides = ["--override", "evolution.t_end=0.2", "--override", "evolution.save_every=200"]
    codes = []
    sys.setprofile(record)
    try:
        for scenario in ("flagship", "single-soliton", "single-breather"):
            argv = ["all", "--scenario", os.path.join(SCENARIOS, f"{scenario}.yaml"), *overrides]
            codes.append(cli.main([*argv, "--out", str(tmp_path / scenario)]))
    finally:
        sys.setprofile(None)
    # a lone object has no second velocity: monotonicity and rate-fit refuse it (exit 2)
    assert codes == [0, 2, 2]

    def guard(fns):
        """The functions no kind reaches, and the options no kind sets."""
        unreached = sorted(name for name, fn in fns.items() if fn.__code__ not in called)
        options = {f"{n}.{param}" for fn in fns.values() for n, param, _ in defaulted[fn.__code__]}
        assert options
        return unreached, sorted(options - set_by_a_kind)

    unreached, unset = guard({name: fn for name, fn in defined.items() if name != probe})
    assert unreached == []
    # an option that every kind leaves at its default is one nobody sets
    assert unset == []
    # the negative control: the guard reports the probe and its option, and nothing else
    assert guard(defined) == ([probe], [f"{probe}.scale"])
