"""Exception types shared across the package, and its rules for numeric inputs and repeats."""

import math
import numbers

__all__ = ["HDFactorError", "ParseError", "DimensionError", "DomainError"]


class HDFactorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HDFactorError, ValueError):
    """Malformed input data: ragged rows, non-numeric cells, bad config files."""


class DimensionError(HDFactorError, ValueError):
    """Input has the wrong shape or size for the requested operation."""


class DomainError(HDFactorError, ValueError):
    """Inputs violate a mathematical precondition of the operation."""


def _integer_in(label: str, value, low: int, high=None, bound: str = "") -> int:
    """``int(value)``, or a DomainError unless ``value`` is an integer in [low, high].

    3.0 and numpy integers are integers; bools (numpy's too), strings, NaN and
    inf are not.  ``high`` None is no bound; ``bound`` names it, such as "n-2".
    """
    # int and float come first in each tuple: they skip the slower ABC checks.
    if (isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real))
            or not (isinstance(value, (int, numbers.Integral)) or math.isfinite(value))
            or int(value) != value or value < low or high is not None and value > high):
        span = f"[{low}, inf)" if high is None else f"[{low}, {bound}] = [{low}, {high}]"
        raise DomainError(f"{label} must be an integer in {span}, got {value!r}")
    return int(value)


def _real_number(label: str, value) -> float:
    """``float(value)``, or a DomainError unless ``value`` is a real number.

    ints, floats and numpy's numbers are real, NaN and inf included; bools
    (numpy's too) and strings are not.  Each caller checks its own range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise DomainError(f"{label} must be a real number, got {value!r}")
    return float(value)


def _distinct(values, message: str) -> tuple:
    """``tuple(values)``, or a DomainError of ``message`` formatted with a repeated value.

    The value is the first, in first-occurrence order, that occurs twice: [5, 1, 1, 5] names 5.
    """
    values = tuple(values)
    for value in dict.fromkeys(values):
        if values.count(value) > 1:
            raise DomainError(message.format(value))
    return values
