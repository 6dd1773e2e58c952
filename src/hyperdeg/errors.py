"""Exception hierarchy shared by all hyperdeg modules."""


class HyperdegError(Exception):
    """Base class for all library errors."""


class InvalidInstance(HyperdegError):
    """The degree-sequence instance itself is malformed."""


class ParityViolation(InvalidInstance):
    """Edge size does not divide the degree sum."""


class RangeViolation(InvalidInstance):
    """Some degree is negative or exceeds the per-vertex maximum."""


class DimensionMismatch(InvalidInstance):
    """Length of the degree vector disagrees with the vertex count."""


class NonIntegral(InvalidInstance):
    """An instance value that must be an integer is not a JSON integer."""


class DensityDegenerate(HyperdegError):
    """Density is exactly 0 or 1; the requested operation is undefined there."""


class BudgetExceeded(HyperdegError):
    """An enumeration would exceed the configured operation budget."""


class NonConvergence(HyperdegError):
    """The Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(HyperdegError):
    """The Newton system matrix is not positive definite."""


class NotPositiveDefinite(HyperdegError):
    """A symmetric factorization met a non-positive pivot."""


class DegenerateDenominator(HyperdegError):
    """A closed-form summation denominator factor is zero at this (n, r)."""
