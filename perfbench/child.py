"""One repetition of a workload in a fresh interpreter (started by run.py).

The child imports mkdvlab from the checkout's `src`, parses the generated
scenario (the end of set-up), runs the workload's operations in order, checks
their outputs and prints one JSON line.  With `--probe` it stops after set-up
and instead records the environment and times the FFT floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

from workloads import WORKLOADS


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _fft_floor_ms(np, n: int, repeats: int = 101) -> float:
    """Median time of the 8 real FFTs of length 2n that one dealiased step needs."""
    x = np.random.default_rng(0).standard_normal(2 * n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(x), 2 * n)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def _trajectory_rows(traj):
    """Snapshot arrays, whether the trajectory holds Fields or a (T, n) block."""
    if hasattr(traj, "values"):
        return list(traj.values)
    return [u.values for u in traj.states]


class Workload:
    """Runs one workload's operations and checks each result."""

    def __init__(self, lab, scenario, spec: dict, out_dir: str):
        self.lab = lab
        self.s = scenario
        self.spec = spec
        self.out_dir = out_dir
        self.ops: list[dict] = []
        self.figures: dict = {}
        self.reports: list = []
        self.eigen: list = []

    def _op(self, name: str, fn):
        try:
            return fn()
        except Exception as exc:  # every failure is counted, the run goes on
            self.ops.append({"op": name, "ok": False, "why": f"{type(exc).__name__}: {exc}"})
            return None

    def run(self):
        """The timed part: what a user waits for."""
        kinds = self.spec["kinds"]
        if kinds == "all":
            kinds = self.lab.EXPERIMENT_KINDS
        for kind in kinds:
            run = lambda: self.lab.run_experiment(self.s, kind, out_dir=self.out_dir)  # noqa: E731
            self.reports.append((kind, self._op(kind, run)))
        for n in self.spec.get("coercivity_n", ()):
            for idx, o in enumerate(self.s.cfg.objects):
                name = f"coercivity_check n={n} object_{idx}"
                self.eigen.append((name, self._op(name, lambda: self._eigencheck(o, n))))

    def _eigencheck(self, o, n: int):
        # the re-centred single-object grid of lab's coercivity kind, at size n
        from mkdvlab import grid, lyapunov, profiles

        p1 = lyapunov.select_parameters(profiles.order_and_validate([o]), self.s.sigma, override=True)
        _, b = profiles.shape_pair(o)
        g = grid.make_grid(max(20.0, 8.0 / b), n)
        if isinstance(o, profiles.Soliton):
            centered = profiles.Soliton(c=o.c, kappa=o.kappa, x0=0.0)
        else:
            centered = profiles.Breather(alpha=o.alpha, beta=o.beta, x1=0.0, x2=0.0)
        return lyapunov.coercivity_check(centered, p1, 1, g)

    def _min_mu(self, mu: float):
        self.figures["coercivity_mu_min"] = min(self.figures.get("coercivity_mu_min", mu), mu)

    def check(self, trajectories):
        """Correctness gate, outside the timed part; fills ops and figures."""
        lab, fig = self.lab, self.figures
        for kind, rep in self.reports:
            if rep is None:
                continue
            why = []
            with open(os.path.join(self.out_dir, f"{kind}-summary.json")) as f:
                written = json.load(f)
            if not (rep.passed and written.get("passed") is True):
                why.append("passed flag is false")
            if kind == "conservation":
                drift = rep.summary["worst"]
                fig["drift_max"] = max(fig.get("drift_max", 0.0), drift)
                if not drift < lab.DRIFT_TOL:
                    why.append(f"drift {drift:.3e} >= {lab.DRIFT_TOL}")
            elif kind == "modulate":
                res = rep.summary["max_ortho_residual"]
                fig["ortho_residual_max"] = max(fig.get("ortho_residual_max", 0.0), res)
                if not res < lab.ORTHO_TOL:
                    why.append(f"orthogonality residual {res:.3e} >= {lab.ORTHO_TOL}")
            elif kind == "coercivity":
                mu = min(r["mu"] for r in rep.summary["results"].values())
                self._min_mu(mu)
                if not mu > 0:
                    why.append(f"coercivity mu {mu} <= 0")
            self.ops.append({"op": kind, "ok": not why, "why": "; ".join(why)})
        for name, res in self.eigen:
            if res is None:
                continue
            self._min_mu(res.mu)
            ok = bool(res.mu > 0)
            self.ops.append({"op": name, "ok": ok, "why": "" if ok else f"mu {res.mu} <= 0"})
        if self.spec.get("exact"):
            self._check_exact(trajectories)

    def _check_exact(self, trajectories):
        import numpy as np
        from mkdvlab import profiles

        (b,) = self.s.cfg.objects
        x = self.s.grid.x
        err = 0.0
        for traj in trajectories:
            for t, u in zip(traj.times, _trajectory_rows(traj)):
                err = max(err, float(np.max(np.abs(u - profiles.breather_eval(b, t, x)))))
        self.figures["max_err_exact"] = err
        ok = bool(trajectories) and err < self.lab.RESIDUAL_TOL
        why = "" if ok else f"max error {err:.3e} >= {self.lab.RESIDUAL_TOL}"
        self.ops.append({"op": "error vs breather_eval", "ok": ok, "why": why})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="parent's CLOCK_MONOTONIC at spawn")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import mkdvlab
    from mkdvlab import lab

    if not os.path.abspath(mkdvlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"mkdvlab imported from {mkdvlab.__file__}, not from {src}")
    with open(args.scenario) as f:
        scenario = lab.parse_scenario(f.read())
    setup_s = _now() - args.spawned

    if args.probe:
        import numpy as np
        import scipy

        print(json.dumps({
            "setup_s": setup_s,
            "fft_floor_ms": _fft_floor_ms(np, scenario.grid.n),
            "environment": _environment(np, scipy),
        }))
        return 0

    spec = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    work = Workload(lab, scenario, spec, args.out)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    trajectories = []
    evolve = lab.evolve
    if spec.get("exact"):
        # keep what the conservation kind integrates, for the error check;
        # installed after the tracer so that evolve is still traced
        def capture(*a, **k):
            traj = evolve(*a, **k)
            trajectories.append(traj)
            return traj

        lab.evolve = capture

    start = time.perf_counter()
    work.run()
    wall_s = time.perf_counter() - start

    lab.evolve = evolve
    if tracer:
        tracer.uninstall()
    work.check(trajectories)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": work.ops,
        "figures": work.figures,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
