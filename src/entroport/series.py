"""Tick ingestion, previous-tick resampling, length alignment and calendar-horizon slicing.

Timestamps are integer nanoseconds since the Unix epoch, UTC. All month
boundaries are calendar-UTC.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from datetime import date
from typing import BinaryIO

import numpy as np

from .errors import DataError, EmptyInputError, HorizonError, TickParseError

NS_PER_S = 1_000_000_000

SERIES_KINDS = ("price", "return", "volatility")

#: one raw trade per row: timestamp in ns since epoch and a positive price
TICK_DTYPE = np.dtype([("timestamp", np.int64), ("price", np.float64)])

#: ASCII separators numpy's number parsers skip as whitespace; int()/float() reject them
_NUMPY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
#: the lone surrogates that errors="surrogateescape" decodes undecodable bytes to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class SampledSeries:
    """Equally spaced series: values plus (start_time, delta) grid metadata.

    delta is the sampling interval in ns; kind is one of 'price', 'return',
    'volatility'.
    """

    values: np.ndarray
    start_time: int
    delta: int
    kind: str = "price"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 1:
            raise DataError("series must be a non-empty 1-D sequence")
        if self.delta <= 0:
            raise DataError("delta must be a positive number of nanoseconds")
        if self.kind not in SERIES_KINDS:
            raise DataError(f"unknown series kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_time(self) -> int:
        """Timestamp of the last sample."""
        return self.start_time + (len(self.values) - 1) * self.delta

    def times(self) -> np.ndarray:
        return self.start_time + self.delta * np.arange(len(self.values), dtype=np.int64)

    def with_values(self, values: np.ndarray, kind: str | None = None,
                    start_time: int | None = None) -> "SampledSeries":
        return SampledSeries(
            values=values,
            start_time=self.start_time if start_time is None else start_time,
            delta=self.delta,
            kind=self.kind if kind is None else kind,
        )


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


def parse_ticks(source: BinaryIO | bytes) -> np.ndarray:
    """Parse the tick CSV format (`timestamp_ns,price` header) into a TICK_DTYPE array.

    The accepted syntax and every error are those of the csv line loop
    (`_parse_ticks_lines`); a plain file takes one vectorised `np.loadtxt`
    pass instead, with the same result. Rows are stably sorted by timestamp,
    so ticks sharing a timestamp keep file order (the last one wins
    downstream in resample).
    """
    data = source if isinstance(source, bytes) else source.read()
    ticks = _parse_ticks_fast(data)
    if ticks is None:
        ticks = _parse_ticks_lines(data)
    return ticks[np.argsort(ticks["timestamp"], kind="stable")]


def _parse_ticks_fast(data: bytes) -> np.ndarray | None:
    """One np.loadtxt pass over a tick file, or None to leave it to the line loop.

    loadtxt reads some text that int()/float() reject, so such files go to
    the line loop: non-ASCII bytes, which encoding="ascii" refuses (its
    integer parser takes any character as a digit), and the separators
    \\x1c-\\x1f (its number parsers skip them as whitespace). comments=None
    keeps a '#' tail an error, and warnings become errors because loadtxt only
    warns on an empty body. Every other failure is a ValueError or a bad price.
    """
    if not data.startswith((b"timestamp_ns,price\n", b"timestamp_ns,price\r\n")) \
            or any(sep in data for sep in _NUMPY_SPACES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = np.loadtxt(io.BytesIO(data), delimiter=",", dtype=TICK_DTYPE,
                               comments=None, skiprows=1, ndmin=1, encoding="ascii")
    except (ValueError, Warning):
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
    line_no = 0
    try:
        for line_no, row in enumerate(reader, start=1):
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
        raise TickParseError(line_no + 1, str(exc)) from None
    if not stamps:
        raise EmptyInputError("tick source contains no records")
    ticks = np.empty(len(stamps), dtype=TICK_DTYPE)
    ticks["timestamp"] = stamps
    ticks["price"] = prices
    return ticks


def resample(ticks: np.ndarray, delta: int) -> SampledSeries:
    """Previous-tick resampling of sorted TICK_DTYPE ticks onto a grid from the first tick.

    Grid point t takes the price of the latest tick with timestamp <= t; the
    grid ends at the last grid point not beyond the last tick.
    """
    if len(ticks) == 0:
        raise EmptyInputError("cannot resample an empty tick sequence")
    if delta <= 0:
        raise DataError("delta must be positive")
    ts = ticks["timestamp"]
    t0 = int(ts[0])
    n_grid = int((int(ts[-1]) - t0) // delta) + 1
    grid = t0 + delta * np.arange(n_grid, dtype=np.int64)
    # searchsorted 'right' - 1 picks the last tick at or before each grid time;
    # for equal timestamps the last one in (stable-sorted) file order wins.
    idx = np.searchsorted(ts, grid, side="right") - 1
    return SampledSeries(values=ticks["price"][idx], start_time=t0, delta=int(delta),
                         kind="price")


def align_lengths(series: list[SampledSeries]) -> list[SampledSeries]:
    """Truncate series on one grid (same delta and start) to the shortest; order kept."""
    if not series:
        raise EmptyInputError("align_lengths requires a non-empty list")
    deltas = {s.delta for s in series}
    if len(deltas) != 1:
        raise DataError(f"all series must share delta, got {sorted(deltas)}")
    starts = {s.start_time for s in series}
    if len(starts) != 1:
        raise DataError(f"all series must start at the same time, got start times "
                        f"{sorted(starts)} ns")
    n_min = min(len(s) for s in series)
    return [s.with_values(s.values[:n_min]) for s in series]


def slice_horizon(series: SampledSeries, year_start: date, months: int,
                  mode: str = "expanding") -> slice:
    """Index range of a series' samples that fall in the calendar horizon of M = months.

    mode='expanding' (default): months 1..M, from year_start on; samples
    before year_start belong to no horizon.
    mode='monthly': the disjoint month M only.
    """
    if not 1 <= months <= 12:
        raise HorizonError(f"months must be in [1, 12], got {months}")
    if mode not in ("expanding", "monthly"):
        raise ValueError(f"unknown horizon mode {mode!r}")
    end_ns = month_start_ns(year_start, months)
    if series.end_time < end_ns - series.delta:
        raise HorizonError(
            f"series ends at {series.end_time} ns, before the {months}-month "
            f"horizon boundary {end_ns} ns"
        )
    lo_ns = month_start_ns(year_start, months - 1 if mode == "monthly" else 0)
    lo, hi = _first_sample_at(series, lo_ns), _first_sample_at(series, end_ns)
    if lo >= hi:
        raise HorizonError("no samples fall inside the requested horizon")
    return slice(lo, hi)


def _first_sample_at(series: SampledSeries, t_ns: int) -> int:
    """Index of the first sample at or after t_ns, as searchsorted(series.times(), t_ns).

    That is ceil((t_ns - start_time) / delta) clamped to [0, len], in integers.
    """
    return min(max(-((series.start_time - t_ns) // series.delta), 0), len(series))


# --- sampled-series cache CSV ------------------------------------------------

def write_series_csv(series: SampledSeries, path) -> None:
    """Write the cache format: comment header with kind/delta, then t_ns,value rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# kind={series.kind} delta_ns={series.delta}\n")
        fh.write("t_ns,value\n")
        for t, v in zip(series.times(), series.values):
            fh.write(f"{t},{float(v)!r}\n")
