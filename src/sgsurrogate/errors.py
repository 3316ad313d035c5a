"""Exception types shared across the package."""

__all__ = [
    "SparseGridError",
    "InvalidNodeError",
    "DimensionMismatchError",
    "OutOfDomainError",
    "EmptyModelError",
    "ContractViolationError",
    "EvaluationError",
    "PersistenceError",
]


class SparseGridError(Exception):
    """Base class for all structured errors raised by this package."""


class InvalidNodeError(SparseGridError):
    """A (level, index) pair that does not exist in the node hierarchy."""


class DimensionMismatchError(SparseGridError):
    """Query vector dimension differs from the model dimension."""


class OutOfDomainError(SparseGridError):
    """Query coordinate outside the closed unit cube, or NaN."""


class EmptyModelError(SparseGridError):
    """Operation requires a model with at least one node."""


class ContractViolationError(SparseGridError):
    """A precondition on model state was violated (e.g. surplus ordering)."""


class EvaluationError(SparseGridError):
    """Full model evaluation failed; carries the offending coordinate.

    Raised out of a build, `.partial` is the BuildResult of the levels
    completed before the failure; otherwise it is None.
    """

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate
        self.partial = None


class PersistenceError(SparseGridError):
    """Surrogate file could not be parsed or written."""
