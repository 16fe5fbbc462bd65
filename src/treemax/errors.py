"""Exception types shared across the package.

Every input error derives from ValueError, so one base class catches them
all; InvariantViolation, a guaranteed bound that failed, is a RuntimeError.
"""


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

