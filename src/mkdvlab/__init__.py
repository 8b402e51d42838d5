"""Numerical laboratory for multi-soliton and breather dynamics of
u_t + (u_xx + u^3)_x = 0: exact profiles, a spectral exponential integrator,
localized conservation functionals, translation modulation, Lyapunov
coercivity checks, and scripted experiments.
"""

from .errors import (
    BlowUp,
    DuplicateVelocity,
    EigensolveFailure,
    EmptyAdmissibleInterval,
    HypothesisViolated,
    MkdvLabError,
    NoConvergence,
    NonPositiveDistance,
    SingularJacobian,
    TailsTooLarge,
)
from .grid import Grid, make_grid
from .profiles import (
    Breather,
    OrderedConfiguration,
    Soliton,
    order_and_validate,
    profile_sum,
)
from .evolution import EvolutionControls, Trajectory, evolve, pde_residual
from .functionals import CutoffFamily, make_cutoff_family
from .modulation import fit_translations, track_modulation
from .lyapunov import LyapunovParams, coercivity_check, select_parameters
from .lab import Scenario, parse_scenario, run_experiment

__version__ = "0.1.0"
