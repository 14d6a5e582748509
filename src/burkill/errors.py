"""Exception types shared across the package."""


class BurkillError(Exception):
    """Base class for all package errors."""


class DegenerateInterval(BurkillError):
    """Raised when an interval would have zero or negative length."""


class PointOutsideRegion(BurkillError):
    """Raised when a division point falls outside the target region."""


class UnsortedPoints(BurkillError):
    """Raised when division points are not strictly increasing."""


class UnknownFixture(BurkillError):
    """Raised when a fixture name is not in the registry."""


class IndeterminateForm(ArithmeticError, BurkillError):
    """Raised on inf - inf during extended-real accumulation."""


class BudgetExceeded(BurkillError):
    """Raised when a candidate search would exceed its configured size cap."""


class BracketDependent(BurkillError):
    """Raised when an operation requires a bracket-independent function."""


class StageTooLarge(BurkillError):
    """Raised when a sign-table stage is outside the supported range."""


class NoConvergence(BurkillError):
    """Raised when an iterative quadrature fails to stabilize."""


class UnsupportedFormat(BurkillError):
    """Raised for unknown report output formats."""
