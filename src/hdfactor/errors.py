"""Exception types shared across the package."""

__all__ = ["HDFactorError", "ParseError", "DimensionError", "DomainError"]


class HDFactorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HDFactorError, ValueError):
    """Malformed input data: ragged rows, non-numeric cells, bad config files."""


class DimensionError(HDFactorError, ValueError):
    """Input has the wrong shape or size for the requested operation."""


class DomainError(HDFactorError, ValueError):
    """Inputs violate a mathematical precondition of the operation."""
