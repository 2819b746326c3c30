"""Exceptions shared across the package."""


class NotInvertible(ValueError):
    """Requested a multiplicative inverse that does not exist in the semiring."""


class OrderTooLarge(ValueError):
    """Matrix order exceeds the cap of the requested algorithm."""


class Singular(ValueError):
    """Operation requires a non-singular (tangible-determinant) matrix."""


class RejectionLimit(RuntimeError):
    """Rejection sampling gave up; the trial configuration is degenerate."""


class InternalError(RuntimeError):
    """Two computations that must agree did not: a defect, not a verdict."""
