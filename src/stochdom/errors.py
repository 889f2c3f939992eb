"""Exception hierarchy shared across the package."""

from __future__ import annotations


class StochdomError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(StochdomError):
    """A candidate distribution violates a structural invariant."""


class MassNotOne(ValidationError):
    """Probability masses do not sum exactly to one."""


class NegativeMass(ValidationError):
    """A probability mass is negative."""


class EmptySupport(ValidationError):
    """No atoms remain after validation."""


class DomainMismatch(StochdomError):
    """Two piecewise polynomials do not share a domain."""


class NonIntegrable(StochdomError):
    """An anchored tail integral diverges."""


class OrderOutOfRange(StochdomError):
    """The requested dominance/transform order is outside the supported range."""


class InvalidBudget(StochdomError):
    """A noise-search budget holds a value the search cannot use."""


class SupportCapExceeded(StochdomError):
    """A convolution would exceed the configured support-size cap."""


class MomentHypothesisViolated(StochdomError):
    """Raw moments required to agree differ at some index."""

    def __init__(self, failing_moment: int, message: str | None = None):
        self.failing_moment = failing_moment
        super().__init__(message or f"raw moments differ at index {failing_moment}")


class GenerationExhausted(StochdomError):
    """Constrained random generation ran out of rejection retries."""


class UnknownSuite(StochdomError):
    """run_property_suite was asked for an unregistered suite name."""


class ParseError(StochdomError):
    """A distribution file is malformed."""


class ValueTooLarge(StochdomError):
    """An exact value has too many digits to be written out."""
