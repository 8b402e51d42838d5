"""Exception types shared across the laboratory modules.

Each class carries the CLI exit code it maps to: 2 for invalid input, 3 for
a runtime failure.
"""


class MkdvLabError(Exception):
    """Base class for all laboratory errors."""

    exit_code = 3


class DuplicateVelocity(MkdvLabError):
    """Two wave objects share the same velocity (distinctness violated)."""

    exit_code = 2


class HypothesisViolated(MkdvLabError):
    """No positive second-smallest velocity v2, so no first cutoff speed: the paper's
    hypothesis fails for J >= 2, and a lone object has no v2 at all."""

    exit_code = 2


class TailsTooLarge(MkdvLabError):
    """A profile's decay envelope at the domain boundary exceeds the budget."""

    exit_code = 2


class BlowUp(MkdvLabError):
    """Time integration produced non-finite or absurdly large values."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"solution blew up at t={t:.6g}")


class Unresolved(MkdvLabError):
    """The run's spectral tail exceeds its budget: the grid no longer resolves it."""

    def __init__(self, t: float, n: int, tail: float, budget: float):
        super().__init__(
            f"unresolved at t={t:.6g}: the top sixteenth of the spectrum is {tail:.2e} "
            f"of its peak at n={n}, above the budget {budget:.0e}"
        )


class NoConvergence(MkdvLabError):
    """Newton iteration for the translation offsets did not converge."""


class SingularJacobian(MkdvLabError):
    """Near-degenerate modulation system (ill-conditioned Jacobian)."""


class EmptyAdmissibleInterval(MkdvLabError):
    """No admissible first cutoff speed exists: v2 <= 0, which only override=True lets through."""


class EigensolveFailure(MkdvLabError):
    """The coercivity check's Lanczos eigensolve did not converge."""


class NonPositiveDistance(MkdvLabError):
    """Exponential rate fit requested on non-positive distances."""
