"""Every public function and method in mkdvlab is reached by a kind.

`mkdvlab all` runs on the flagship and on the lone soliton, the J = 3 and
J = 1 paths, under sys.setprofile.  A public function that no kind calls is
dead code, or a test-only reference that belongs in tests/oracles.py.
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


def _public_code():
    """The code object of each public module-level function and public method
    (properties included) defined in mkdvlab, by dotted name."""
    out = {}
    for info in pkgutil.iter_modules(mkdvlab.__path__):
        mod = importlib.import_module(f"mkdvlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    # properties, cached properties, static and class methods
                    fn = getattr(member, "fget", None) or getattr(member, "func", member)
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn):
                        out[f"{info.name}.{name}.{attr}"] = fn.__code__
    return out


def test_every_public_function_is_reached_by_a_kind(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    overrides = ["--override", "evolution.t_end=0.2", "--override", "evolution.save_every=200"]
    codes = []
    sys.setprofile(record)
    try:
        for scenario in ("flagship", "single-soliton"):
            argv = ["all", "--scenario", os.path.join(SCENARIOS, f"{scenario}.yaml"), *overrides]
            codes.append(cli.main([*argv, "--out", str(tmp_path / scenario)]))
    finally:
        sys.setprofile(None)
    assert codes == [0, 0]

    public = _public_code()
    assert LEMMA_CHECKS <= public.keys()
    unreached = sorted(name for name, code in public.items() if code not in called)
    assert unreached == sorted(LEMMA_CHECKS)
