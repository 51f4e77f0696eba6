"""Tick ingestion, previous-tick resampling onto the run grid, and calendar-horizon slicing.

Timestamps are integer nanoseconds since the Unix epoch, UTC. All month
boundaries are calendar-UTC. A run samples every asset on one grid,
month_start_ns(year_start, 0) + k * delta, where k may be negative; an asset
is its first k and its prices from there.
"""

from __future__ import annotations

import csv
import io
import lzma
import math
import os
import re
import warnings
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyInputError, HorizonError, TickParseError

NS_PER_S = 1_000_000_000

#: one raw trade per row: timestamp in ns since epoch and a positive price
TICK_DTYPE = np.dtype([("timestamp", np.int64), ("price", np.float64)])

#: ASCII separators numpy's number parsers skip as whitespace; int()/float() reject them
_NUMPY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
#: the lone surrogates that errors="surrogateescape" decodes undecodable bytes to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def seconds_to_ns(seconds: float, what: str) -> int:
    """`seconds` rounded to whole nanoseconds; DataError naming `what` unless finite and >= 1 ns."""
    ns = seconds * NS_PER_S
    if not math.isfinite(ns):
        raise DataError(f"{what} {seconds} is not a finite number of nanoseconds")
    if round(ns) < 1:
        raise DataError(f"{what} {seconds} is below one nanosecond")
    return round(ns)


def whole_samples(seconds: float, delta_ns: int, what: str) -> int:
    """`seconds` as a count of delta_ns samples; DataError naming `what` unless whole and >= 2."""
    samples, rest = divmod(seconds * NS_PER_S, delta_ns)
    if rest != 0:
        raise DataError(f"{what} {seconds}s is not a whole number of {delta_ns} ns samples")
    if samples < 2:
        raise DataError(f"{what} {seconds}s is under 2 samples of {delta_ns} ns")
    return int(samples)


def check_sample_times(start_ns: int, delta_ns: int, length: int, what: str) -> None:
    """DataError naming `what` unless start_ns + k * delta_ns fits int64 for every k < length."""
    if not (-2**63 <= start_ns and start_ns + (length - 1) * delta_ns < 2**63):
        raise DataError(f"sample times from {what} do not fit int64 nanoseconds")


def date_ns(day: date) -> int:
    """Midnight UTC at the start of day, as ns since the epoch."""
    return (day - date(1970, 1, 1)).days * 86_400 * NS_PER_S


def month_start_ns(year_start: date, months: int) -> int:
    """Midnight UTC on the first of the month `months` after year_start's, in ns."""
    month0 = year_start.year * 12 + (year_start.month - 1) + months
    return date_ns(date(month0 // 12, month0 % 12 + 1, 1))


def iso_utc(t_ns: int) -> str:
    """t_ns as a UTC ISO 8601 time, with nanoseconds only when it has any."""
    seconds, ns = divmod(t_ns, NS_PER_S)
    text = (datetime(1970, 1, 1) + timedelta(seconds=seconds)).isoformat()
    return f"{text}.{ns:09d}Z" if ns else f"{text}Z"


def parse_ticks(path: str | os.PathLike[str]) -> np.ndarray:
    """Parse the tick CSV file at `path` (`timestamp_ns,price` header) into a TICK_DTYPE array.

    The accepted syntax and every error are those of the csv line loop
    (`_parse_ticks_lines`) over the file's bytes. A plain file is then read
    once more, by path, in one vectorised `np.loadtxt` pass with the same
    result, so the file must not change while it is parsed. Rows are stably
    sorted by timestamp, so ticks sharing a timestamp keep file order (the
    last one wins downstream in resample).
    """
    path = Path(path)
    data = path.read_bytes()
    ticks = _parse_ticks_fast(path, data)
    if ticks is None:
        ticks = _parse_ticks_lines(data)
    return ticks[np.argsort(ticks["timestamp"], kind="stable")]


def _parse_ticks_fast(path: Path, data: bytes) -> np.ndarray | None:
    """One np.loadtxt pass over the tick file `path` holding `data`, or None for the line loop.

    Only a path gets numpy's chunked C reader; a file object is fed to it one
    line at a time. loadtxt reads some text that int()/float() reject, so
    such files go to the line loop: non-ASCII bytes, which encoding="ascii"
    refuses (its integer parser takes any character as a digit), and the
    separators \\x1c-\\x1f (its number parsers skip them as whitespace).
    comments=None keeps a '#' tail an error, and warnings become errors
    because loadtxt only warns on an empty body. numpy opens a path named
    *.gz, *.bz2, *.xz or *.lzma as compressed, so such a plain file fails
    with an OSError or LZMAError (a Path's text never has 'scheme://', so
    numpy never takes it for a URL). Every other failure is a ValueError or a
    bad price.
    """
    if not data.startswith((b"timestamp_ns,price\n", b"timestamp_ns,price\r\n")) \
            or any(sep in data for sep in _NUMPY_SPACES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = np.loadtxt(path, delimiter=",", dtype=TICK_DTYPE,
                               comments=None, skiprows=1, ndmin=1, encoding="ascii")
    except (ValueError, Warning, OSError, lzma.LZMAError):
        return None
    prices = ticks["price"]
    if not ((prices > 0) & (prices < np.inf)).all():  # also false for nan
        return None
    return ticks


def _parse_ticks_lines(data: bytes) -> np.ndarray:
    """Parse tick CSV bytes row by row; defines the accepted syntax and its errors."""
    # surrogateescape maps each undecodable byte to one lone surrogate, so a
    # non-UTF-8 row is reported by line rather than failing the whole decode
    reader = csv.reader(io.StringIO(data.decode("utf-8", "surrogateescape"), newline=""))
    stamps: list[int] = []
    prices: list[float] = []
    line_no = end = 0  # the lines on which the record starts and ends
    try:
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if any(map(_UNDECODABLE.search, row)):
                raise TickParseError(line_no, "not valid UTF-8")
            if line_no == 1:
                if row != ["timestamp_ns", "price"]:
                    raise TickParseError(line_no, f"bad header {row!r}")
                continue
            if not row or row == [""]:
                continue
            if len(row) != 2:
                raise TickParseError(line_no, f"expected 2 fields, got {len(row)}")
            try:
                ts = int(row[0])
                price = float(row[1])
            except ValueError as exc:
                raise TickParseError(line_no, str(exc)) from None
            if not -2**63 <= ts < 2**63:
                raise TickParseError(line_no, f"timestamp {row[0]} outside the int64 range")
            if not math.isfinite(price) or price <= 0:
                raise DataError(f"line {line_no}: non-positive or non-finite price {row[1]}")
            stamps.append(ts)
            prices.append(price)
    except csv.Error as exc:  # e.g. a field over the csv field size limit
        raise TickParseError(end + 1, str(exc)) from None
    if not stamps:
        raise EmptyInputError("tick source contains no records")
    ticks = np.empty(len(stamps), dtype=TICK_DTYPE)
    ticks["timestamp"] = stamps
    ticks["price"] = prices
    return ticks


def resample(ticks: np.ndarray, origin: int, delta: int) -> tuple[int, np.ndarray]:
    """Previous-tick resampling of sorted TICK_DTYPE ticks onto the grid origin + k * delta.

    Returns the first k whose grid time is at or after the first tick, and
    the prices from that grid time to the last one not beyond the last tick
    (none when the ticks span no grid time). Grid time t takes the price of
    the latest tick with timestamp <= t.
    """
    if len(ticks) == 0:
        raise EmptyInputError("cannot resample an empty tick sequence")
    if delta <= 0:
        raise DataError("delta must be positive")
    ts = ticks["timestamp"]
    # in Python ints, which cannot wrap as numpy's would
    first = -((origin - int(ts[0])) // delta)
    stop = (int(ts[-1]) - origin) // delta + 1
    if stop <= first:
        return first, np.empty(0)
    grid = (origin + first * delta) + delta * np.arange(stop - first, dtype=np.int64)
    # searchsorted 'right' - 1 picks the last tick at or before each grid time;
    # for equal timestamps the last one in (stable-sorted) file order wins.
    return first, ticks["price"][np.searchsorted(ts, grid, side="right") - 1]


def slice_horizon(start_ns: int, delta_ns: int, length: int, year_start: date, months: int,
                  mode: str = "expanding") -> slice:
    """Index range of the samples start_ns + k * delta_ns, k < length, in the horizon M = months.

    mode='expanding' (default): months 1..M, from year_start on; samples
    before year_start belong to no horizon.
    mode='monthly': the disjoint month M only.
    """
    if not 1 <= months <= 12:
        raise HorizonError(f"months must be in [1, 12], got {months}")
    if mode not in ("expanding", "monthly"):
        raise ValueError(f"unknown horizon mode {mode!r}")
    end_ns = month_start_ns(year_start, months)
    last_ns = start_ns + (length - 1) * delta_ns
    if last_ns < end_ns - delta_ns:
        raise HorizonError(f"the grid ends at {iso_utc(last_ns)}, before the {months}-month "
                           f"horizon boundary {iso_utc(end_ns)}")
    lo_ns = month_start_ns(year_start, months - 1 if mode == "monthly" else 0)
    # the first sample at or after t is ceil((t - start_ns) / delta_ns), clamped to [0, length]
    lo, hi = (min(max(-((start_ns - t) // delta_ns), 0), length) for t in (lo_ns, end_ns))
    if lo >= hi:
        raise HorizonError("no samples fall inside the requested horizon")
    return slice(lo, hi)
