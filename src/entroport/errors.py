"""Exception hierarchy shared across the package."""


class EntroportError(Exception):
    """Base class for all package errors."""


class TickParseError(EntroportError):
    """A tick CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InputFileError(EntroportError):
    """An input file is missing or cannot be read (a directory, no permission)."""


class EmptyInputError(EntroportError):
    """Input contained no usable records."""


class DataError(EntroportError):
    """A value violates a data invariant (e.g. non-positive price)."""


class HorizonError(EntroportError):
    """Series does not span the requested calendar horizon, or M out of bounds."""


class InsufficientClustersError(EntroportError):
    """Too few clusters for a statistically valid duration distribution."""


class NoTangencyError(EntroportError):
    """Sharpe maximization infeasible: no asset has positive expected return."""


class ConfigError(EntroportError):
    """Pipeline configuration is invalid."""
