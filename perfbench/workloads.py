"""The benchmark's workloads, shared by the runner and the child process.

Each workload starts from a scenario file of the repository and changes only
the evolution length and the snapshot spacing; the grid, the time step and
the objects stay as the scenario has them.  README.md in this directory says
why each workload exists and which layer metrics it should move.
"""

WORKLOADS = {
    # One breather against its closed form: integration is ~99% of the time
    # and the run carries the accuracy figure max_err_exact.
    "breather-exact": {
        "scenario": "scenarios/single-breather.yaml",
        "evolution": {"t_end": 1.0},
        "kinds": ("conservation",),
        "exact": True,
    },
    # `mkdvlab all` on the flagship with sparse snapshots: four integrations
    # of one datum and three n = 512 eigenchecks.  Rate-fit needs two
    # snapshots in its window [t_end/4, t_end], hence three saves.
    "flagship-all": {
        "scenario": "scenarios/flagship.yaml",
        "evolution": {"t_end": 0.2, "save_every": 200},
        "kinds": "all",  # lab.EXPERIMENT_KINDS, the order `mkdvlab all` uses
    },
    # The flagship with a snapshot at every step: the per-snapshot analysis
    # (functionals, modulation, Field construction) is about half the time.
    "flagship-dense": {
        "scenario": "scenarios/flagship.yaml",
        "evolution": {"t_end": 0.1, "save_every": 1},
        "kinds": ("conservation", "monotonicity", "modulate", "rate-fit"),
    },
    # coercivity_check alone, for each flagship object on the re-centred grid
    # the coercivity kind builds, at three sizes; no integration.
    "coercivity-scaling": {
        "scenario": "scenarios/flagship.yaml",
        "evolution": {},
        "kinds": (),
        "coercivity_n": (256, 512, 1024),
    },
}
