"""The benchmark's child process against the package, in process.

perfbench/child.py and perfbench/spans.py bind mkdvlab names by keyword:
the tracer binds run_experiment's kind, coercivity_check's g, evolve's
controls and write_report's out_dir and report, and the child calls
select_parameters with override=True.  A renamed parameter breaks the
benchmark, so a short flagship run goes through both files here, unedited.
"""

import importlib
import os

from mkdvlab import lab

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_traced_flagship_workload_passes_every_operation(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    child = importlib.import_module("child")
    spans = importlib.import_module("spans")
    with open(os.path.join(PERFBENCH, "..", "scenarios", "flagship.yaml")) as f:
        text = f.read()
    # save_every 1 keeps two snapshots in rate-fit's window [t_end/4, t_end]
    text = text.replace("t_end: 8.0, save_every: 400", "t_end: 0.02, save_every: 1")
    s = lab.parse_scenario(text)
    assert (s.controls.t_end, s.controls.save_every) == (0.02, 1)
    work = child.Workload(
        lab, s, {"kinds": "all", "coercivity_n": (256,)}, str(tmp_path)
    )
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        work.run()
    finally:
        tracer.uninstall()
    work.check([])
    assert [op for op in work.ops if not op["ok"]] == []
    assert len(work.ops) == len(lab.EXPERIMENT_KINDS) + s.cfg.J
    assert tracer.layer_metrics()["evolution.evolve.calls"] == 1
