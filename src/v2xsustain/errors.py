"""Shared exception types.

Every numeric routine raises DomainError (or a subclass) for inputs outside
its mathematical domain instead of returning NaN, so callers can tell a
modeling violation from a computed zero.
"""


class DomainError(ValueError):
    """Input violates a documented precondition of the model."""


class OverflowRangeError(OverflowError):
    """Result exceeds double-precision range."""


class IntegrandError(ValueError):
    """Integrand returned a non-finite value inside the integration interval."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate so callers can inspect how far
    the refinement got before its maximum depth.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class AuthenticationError(Exception):
    """Challenge-response verification failed."""


class SimulationTruncated(RuntimeError):
    """A run needs more events than its cap, found before any event is built;
    carries the cap and needed, a lower bound on the events (needed > cap)."""

    def __init__(self, cap: int, needed: int):
        super().__init__(f"event cap {cap} exceeded: the run needs at least {needed} events")
        self.cap, self.needed = cap, needed


class ConfigError(ValueError):
    """Scenario configuration failed to parse or validate."""
