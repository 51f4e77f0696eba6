"""Exception hierarchy shared across the package, and the finite check that raises one."""

import numpy as np


class EntroportError(Exception):
    """Base class for all package errors."""


class TickParseError(EntroportError):
    """A tick CSV row could not be parsed; the message starts with its 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


class InputFileError(EntroportError):
    """An input file is missing or cannot be read (a directory, no permission)."""


class EmptyInputError(EntroportError):
    """Input contained no usable records."""


class DataError(EntroportError):
    """A value violates a data invariant (e.g. non-positive price)."""


def check_finite(values: np.ndarray) -> None:
    """A DataError unless every value is finite (no NaN, no +-inf)."""
    if not np.isfinite(values).all():
        raise DataError("series values must be finite")


class HorizonError(EntroportError):
    """Series does not span the requested calendar horizon, or M out of bounds."""


class InsufficientClustersError(EntroportError):
    """Too few clusters for a statistically valid duration distribution."""


class NoTangencyError(EntroportError):
    """Sharpe maximization infeasible: no asset has positive expected return."""


class ConfigError(EntroportError):
    """Pipeline configuration is invalid."""
