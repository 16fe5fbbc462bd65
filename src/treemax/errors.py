"""Exception types shared across the package, and its one float-range rule, :func:`finite`.

Every input error derives from ValueError, so one base class catches them
all; InvariantViolation, a guaranteed bound that failed, is a RuntimeError.
"""
import contextlib
import math


class DomainError(ValueError):
    """A numeric argument lies outside the domain of the operation."""


class SizeError(ValueError):
    """A requested structure exceeds the configured node budget."""


class ShapeError(ValueError):
    """Mismatched shapes, e.g. piece count vs. leaf count."""


class InfeasibleMomentsError(DomainError):
    """Moment pair (f, F) violates the power-mean constraint f**p <= F."""


class DivergentIntegralError(DomainError):
    """A power-law integrand is not integrable for the requested exponent."""


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed bound failed beyond the rounding slack."""


def finite(message: str, *forms):
    """The first finite value of the zero-argument ``forms``; a power that raises is not finite."""
    for form in forms:
        with contextlib.suppress(OverflowError):
            if math.isfinite(value := form()):
                return value
    raise OverflowError(message)
