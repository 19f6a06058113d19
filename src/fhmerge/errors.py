"""Exception types shared across the package, and the tolerance, size and t checks."""

import math


class FhmergeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FhmergeError, ValueError):
    """Parameters violate a precondition or an invariant."""


class GammaPoleError(ValidationError):
    """log_gamma evaluated at a pole of the Gamma function."""


class BarnesGZeroError(ValidationError):
    """log_barnes_g evaluated at a zero of the Barnes G-function."""


class NondegeneracyError(ValidationError):
    """alpha_j +/- beta_j (or a merged combination) hits a negative integer."""


class NumericalError(FhmergeError, RuntimeError):
    """A computation failed to reach the requested accuracy."""


class QuadratureError(NumericalError):
    """Quadrature error estimate exceeds tolerance after maximum refinement."""


class SingularMatrixError(NumericalError):
    """A pivot underflowed during triangular factorization."""

    def __init__(self, leading_dimension):
        self.leading_dimension = leading_dimension
        super().__init__(
            f"singular leading {leading_dimension}x{leading_dimension} block"
        )


class BranchAmbiguityError(NumericalError):
    """Neighboring determinant arguments differ by >= pi on a parameter path."""


class PoleDetectedError(NumericalError):
    """The Painleve transcendent blew up during integration."""

    def __init__(self, x_location):
        self.x_location = x_location
        super().__init__(f"sigma pole detected near x = {x_location:.6g}")


class DegenerateDenominatorError(NumericalError):
    """The r-identity denominator stays below the degeneracy floor."""


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite positive number."""
    if not 0.0 < tol < float("inf"):
        raise ValidationError(f"tol must be finite and positive, got {tol}")


def check_size(n: int) -> None:
    """Refuse a determinant size n < 1, where an expansion's ln n has no value."""
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")


def check_t(t: float) -> None:
    """Refuse t outside (0, pi), the range of every expansion in t."""
    if not 0.0 < t < math.pi:
        raise ValidationError(f"t must lie in (0, pi), got {t}")
