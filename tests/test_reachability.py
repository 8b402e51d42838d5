"""Every function and method in mkdvlab is reached by a kind.

`mkdvlab all` runs on the flagship, the lone soliton and the lone breather,
the J = 3 and J = 1 paths and the CLI's failure path, under sys.setprofile.
A function, public or private, that no kind calls is dead code, or a
test-only reference that belongs in tests/oracles.py.
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


def _defined_code():
    """The code object of each module-level function and method (properties
    included) defined in mkdvlab, by dotted name; dunder methods excluded."""
    out = {}
    for info in pkgutil.iter_modules(mkdvlab.__path__):
        mod = importlib.import_module(f"mkdvlab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    # properties, cached properties, static and class methods
                    fn = getattr(member, "fget", None) or getattr(member, "func", member)
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn):
                        out[f"{info.name}.{name}.{attr}"] = fn.__code__
    return out


def test_every_function_is_reached_by_a_kind(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

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

    defined = _defined_code()
    assert LEMMA_CHECKS <= defined.keys()
    unreached = sorted(name for name, code in defined.items() if code not in called)
    assert unreached == sorted(LEMMA_CHECKS)
