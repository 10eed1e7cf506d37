"""Exception types shared across the package."""

__all__ = ["CoverIdealsError", "InconclusiveError", "OracleDisagreementError",
           "SizeGuardError", "ValidationError"]


class CoverIdealsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CoverIdealsError, ValueError):
    """A value violates a structural invariant."""


class SizeGuardError(CoverIdealsError):
    """An exact enumeration was refused because the instance is too large."""


class InconclusiveError(CoverIdealsError):
    """No available route can decide the requested verdict."""


class OracleDisagreementError(CoverIdealsError):
    """Independent computation routes returned different results."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
