"""Every function and method in mkdvlab is reached by a kind, and every
defaulted parameter is set by one.

`mkdvlab all` runs on the flagship, the lone soliton and the lone breather,
the J = 3 and J = 1 paths and the CLI's failure path, under sys.setprofile.
A function, public or private, that no kind calls is dead code, or a
test-only reference that belongs in tests/oracles.py.  A defaulted parameter
that no kind passes a value other than its default is an option nobody sets.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import mkdvlab
from mkdvlab import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# The paper's two lemma checks and the cutoff derivatives only they use.  They
# are to become monotonicity keys next to coefficient_positivity (ROADMAP item 6,
# folded into item 16); until then only the tests call them.
LEMMA_CHECKS = {
    "functionals.cutoff_derivative_inequality",
    "functionals.derivative_inequality_holds",
    "functionals.psi_second",
    "functionals.psi_prime",
    "functionals.CutoffFamily.weight_x",
    "lyapunov.interpolation_inequality_check",
}


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


def test_every_function_is_reached_by_a_kind(tmp_path):
    defined = _defined_functions()
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
    # the lone breather moves left: monotonicity and rate-fit refuse it (exit 2)
    assert codes == [0, 0, 2]

    assert LEMMA_CHECKS <= defined.keys()
    unreached = sorted(name for name, fn in defined.items() if fn.__code__ not in called)
    assert unreached == sorted(LEMMA_CHECKS)
    # an option that every kind leaves at its default is one nobody sets
    options = {f"{name}.{param}" for params in defaulted.values() for name, param, _ in params}
    assert options
    assert sorted(options - set_by_a_kind) == []
