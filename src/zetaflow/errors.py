"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ZetaflowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetaflowError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at the simple pole s = 1."""


class AccuracyError(ZetaflowError):
    """A numerical routine could not certify the requested tolerance.

    Carries the best available estimate and the residual error bound.
    """

    def __init__(self, message: str, estimate=None, residual: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


class PrecisionFloorError(AccuracyError):
    """Float64 rounding alone on this route exceeds the requested tolerance.

    No refinement can certify the point on the route that raised it; a
    caller with another route should use that one instead.
    """


class CharacterValidationError(ZetaflowError, ValueError):
    """A raw value table is not a Dirichlet character."""


class ConfigurationError(ZetaflowError, ValueError):
    """A run configuration violates a documented hypothesis or schema."""


class StiffnessError(ZetaflowError):
    """The adaptive ODE step fell below its 1e-12 floor (``ode.DT_MIN``).

    Carries the last accepted time and state.
    """

    def __init__(self, message: str, last_t: float, last_state: complex):
        super().__init__(message)
        self.last_t = last_t
        self.last_state = last_state


class DegenerateZeroError(ZetaflowError):
    """|Re F'(z0)| is too small to decide sink vs source."""


class QuenchSignal(ZetaflowError):
    """The nonlinearity was evaluated too close to the pole s = 1.

    Raised from inside a time step; the PDE driver converts it into a
    'quenched' termination. Carries the offending grid index and value.
    """

    def __init__(self, index, value: complex, min_p: float):
        super().__init__(f"pole guard hit at grid index {index}: value {value!r}, P={min_p:.3e}")
        self.index = index
        self.value = value
        self.min_p = min_p


class NumericalFailureError(ZetaflowError):
    """A numerical march could not continue with finite values.

    A PDE step whose nonlinearity is not finite is halved; once halving is
    exhausted the march raises this error with the time reached and the
    last finite field (``last_time``, ``last_state``).  The CLI exits 3.
    """

    def __init__(self, message: str, last_time: float | None = None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


class ContractionError(ZetaflowError):
    """Observed Picard contraction factor exceeded 1."""


class CounterexampleError(ZetaflowError):
    """A discrete run escaped a region the theory declares invariant.

    Signals step-size or tolerance review, not a disproof.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
