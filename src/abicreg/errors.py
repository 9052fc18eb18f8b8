"""Exception types shared across the package, and its positive-and-finite scalar check."""

import math

__all__ = [
    "AbicregError",
    "DimensionError",
    "DomainError",
    "FactorizationError",
    "SingularMatrixError",
    "DegenerateProblemError",
    "EvaluationError",
    "RankDeficiencyWarning",
]


class AbicregError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AbicregError, ValueError):
    """Array shapes are inconsistent. The message names the offending field."""


class DomainError(AbicregError, ValueError):
    """A scalar parameter is outside its valid domain (e.g. kappa < 0)."""


def check_positive_finite(value, name):
    """DomainError unless 0 < value < inf; nan fails too."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


class FactorizationError(AbicregError, ArithmeticError):
    """A matrix required to be symmetric positive definite is not."""


class SingularMatrixError(FactorizationError):
    """A design is numerically rank deficient where full rank is needed.

    Carries the condition number of the normal matrix, (s_max / s_min)^2
    of the whitened design, in ``condition``.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateProblemError(AbicregError, ValueError):
    """The data make an objective undefined (e.g. y equals A mu exactly)."""


class EvaluationError(AbicregError, ArithmeticError):
    """An objective could not be evaluated over most of the search grid."""


class RankDeficiencyWarning(UserWarning):
    """The design matrix is numerically rank deficient."""
