"""Exception types raised across the package.

Everything derives from ShotBudgetError so callers can catch the whole
family with one clause.  DomainError doubles as a ValueError because most
of its sites are plain argument-range violations.
"""


class ShotBudgetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShotBudgetError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NotHermitian(ShotBudgetError):
    """Matrix handed to the eigensolver is not Hermitian within tolerance."""


class NoConvergence(ShotBudgetError):
    """An iterative kernel exhausted its iteration budget."""


class InvalidBracket(ShotBudgetError):
    """Minimization bracket endpoints are not ordered."""


class NoBracket(ShotBudgetError):
    """Root solver could not enclose the target value."""


class DimensionMismatch(ShotBudgetError):
    """Two states or distributions have incompatible dimensions."""


class InvalidState(ShotBudgetError):
    """A vector or matrix fails the state invariants (norm, trace, PSD...)."""


class DegenerateStates(ShotBudgetError):
    """States are indistinguishable; no finite shot count separates them."""


class ZeroExpectedBin(ShotBudgetError):
    """Reference distribution puts zero probability on some bin."""


class BaselineNotAboveTarget(ShotBudgetError):
    """Baseline success probability does not exceed the degraded one."""


class ZeroWeight(ShotBudgetError):
    """A block resolves to zero weight, so no angle can be allocated to it."""


class ZeroBudget(ShotBudgetError):
    """Program fidelity target of 1 leaves a zero error-angle budget."""
