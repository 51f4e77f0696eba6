"""Property tests for the histogram, crossing, tick, return, volatility, simplex and ascent invariants
the pipeline relies on."""

import functools
import itertools
import math
import operator
import subprocess
import sys
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from entroport import (TICK_DTYPE, DataError, HorizonError, InsufficientClustersError,
                       cluster_entropy_weights, date_ns, month_start_ns, slice_horizon,
                       entropy_curve, entropy_index, linear_returns, log_returns,
                       resample, weight_entropy)
from entroport.dma_cluster import PrefixTables, _filter, _pass_histogram, crossing_pass
from entroport.errors import EntroportError
from entroport.portfolio import (_ascend, _grid_start, _project_simplex, _sharpe,
                                 max_sharpe_weights)
from entroport.returns_vol import _VOL_BLOCK, _constant_windows, rolling_volatility
from entroport.series import _parse_ticks_lines
from tick_file import parse_tick_file

durations = st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=300)


@settings(deadline=None)
@given(durations)
def test_cluster_distribution_conserves_clusters_and_duration(taus_in):
    d = np.array(taus_in)
    taus, counts = _pass_histogram(np.bincount(d))
    assert counts.sum() == len(d)
    assert (taus * counts).sum() == d.sum()
    assert np.all(np.diff(taus) > 0)
    want_taus, want_counts = np.unique(d, return_counts=True)  # sort-based reference
    assert (taus.tolist(), counts.tolist()) == (want_taus.tolist(), want_counts.tolist())


@settings(deadline=None)
@given(durations)
def test_entropy_curve_equals_per_bin_loop(taus_in):
    _, counts = _pass_histogram(np.bincount(taus_in))
    curve = entropy_curve(counts)
    per_bin = [float(-np.log(p)) for p in (counts / counts.sum()).tolist()]
    assert curve.tolist() == per_bin  # the vectorised curve changes no bit


@settings(deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=200))
def test_entropy_index_sums_every_bin_left_to_right(values):
    assert entropy_index(np.array(values)) == functools.reduce(operator.add, values, 0.0)


def _previous_tick_oracle(rows, origin, delta):
    """First k with origin + k * delta at or after the first tick, and the price of the
    latest tick at or before each grid time from there to the last tick; file order
    breaks ties."""
    t_min, t_max = min(t for t, _ in rows), max(t for t, _ in rows)
    first = next(k for k in itertools.count((t_min - origin) // delta)
                 if origin + k * delta >= t_min)
    out = []
    for g in range(origin + first * delta, t_max + 1, delta):
        best = None
        for t, p in rows:
            if t <= g and (best is None or t >= best[0]):
                best = (t, p)
        out.append(best[1])
    return first, out


# a narrow timestamp range makes duplicate timestamps common
ticks = st.lists(st.tuples(st.integers(min_value=-50, max_value=50),
                           st.floats(min_value=1e-6, max_value=1e6)),
                 min_size=1, max_size=40)


@settings(deadline=None)
@given(ticks, st.integers(min_value=1, max_value=30))
def test_parse_then_resample_matches_previous_tick_oracle(rows, delta):
    body = "timestamp_ns,price\n" + "".join(f"{t},{p!r}\n" for t, p in rows)
    # the grid from 0 often starts after the first tick, or misses the ticks' span
    first, prices = resample(parse_tick_file(body.encode()), 0, delta)
    assert (first, prices.tolist()) == _previous_tick_oracle(rows, 0, delta)


int64s = st.one_of(st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, -2**63 + 1, 0, 2**63 - 2, 2**63 - 1]))


@settings(deadline=None, max_examples=400)
@given(origin=int64s, delta=st.one_of(st.integers(1, 1000), st.integers(1, 2**63 - 1)),
       data=st.data())
def test_resample_on_any_grid_matches_searchsorted_oracle(origin, delta, data):
    """Grid times origin + k * delta, in Python ints; every kept one takes the latest tick."""
    base = data.draw(int64s, label="base")
    stamps = sorted(data.draw(st.lists(st.integers(base, min(base + 600 * delta, 2**63 - 1)),
                                       min_size=1, max_size=30), label="stamps"))
    ticks = np.array([(t, 1.0 + i) for i, t in enumerate(stamps)], dtype=TICK_DTYPE)
    first, prices = resample(ticks, origin, delta)
    ks = range((stamps[0] - origin) // delta, (stamps[-1] - origin) // delta + 2)
    times = np.array([origin + k * delta for k in ks], dtype=object)  # may pass int64
    # the grid times at or after the first tick and not beyond the last
    lo = int(np.searchsorted(times, stamps[0]))
    hi = int(np.searchsorted(times, stamps[-1], side="right"))
    assert first == ks[lo]
    kept = np.array(times[lo:hi].tolist(), dtype=np.int64)
    expected = ticks["price"][np.searchsorted(ticks["timestamp"], kept, side="right") - 1]
    assert prices.tolist() == expected.tolist()


# each changes one field of a plain row; int()/float() and loadtxt may read it apart
FIELD_ODDITIES = {
    "underscore": lambda f: f[:1] + "_" + f[1:],
    "lead_underscore": lambda f: "_" + f,
    "hash_tail": lambda f: f + "#x",
    "nul_tail": lambda f: f + "\x00",
    "quoted": lambda f: f'"{f}"',
    "file_separator": lambda f: f + "\x1c",
    "unit_separator": lambda f: "\x1f" + f,
    "nbsp": lambda f: "\xa0" + f,
    "em_space": lambda f: f + "\u2003",
    "latin_letter": lambda f: f + "\u01fe",
    "arabic_digit": lambda f: f + "\u0663",
    "float_form": lambda f: f + ".0",
    "exponent_form": lambda f: f + "e0",
    "extra_field": lambda f: f + ",",
    "empty": lambda f: "",
}
BAD_PRICES = ["nan", "inf", "-inf", "0", "-0.0", "-1.5", "1e400", "1e-400", "infinity", "0x1p3"]
# a lone '\r' ends a line for the csv loop and for numpy's reader alike, and
# '\x0b', '\x0c' and '\x85' end a line for neither
ODD_LINES = [" ", "\t", "5", "1,2,3", "\x1c", "#", "7,2.5\r8,3.5", "7\r,2.5", "7,2.5\x0b",
             "7,2.5\x0c", "7,2.5\x85"]
INT64_EDGES = [-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 2, 2 ** 63 - 1]


def _odd(draw, choices, odd_share):
    """None, or one of `choices` with probability about `odd_share`."""
    plain = round(len(choices) * (1 - odd_share) / odd_share)
    return draw(st.sampled_from([None] * plain + list(choices)))


def _rarely(draw, odd_share):
    return _odd(draw, [True], odd_share) is not None


@st.composite
def tick_rows(draw):
    """A tick row in the forms both parsers read alike (spaces, tabs, `+`, exponents),
    now and then with one odd field, bad price or out-of-range timestamp."""
    ts = draw(st.one_of(st.integers(-3, 3), st.sampled_from(INT64_EDGES),
                        st.integers(-2 ** 63, 2 ** 63 - 1)))
    ts = _odd(draw, [-2 ** 63 - 1, 2 ** 63], odd_share=0.05) or ts
    price = draw(st.floats(min_value=1e-300, max_value=1e300))
    fields = [str(ts), draw(st.sampled_from([repr(price), f"{price:e}", f"{price:.3E}"]))]
    fields[1] = _odd(draw, BAD_PRICES, odd_share=0.05) or fields[1]
    pad = st.sampled_from(["", "", "", " ", "\t", "  "])
    fields = [draw(pad) + ("" if f.startswith("-") else draw(st.sampled_from(["", "", "+"])))
              + f + draw(pad) for f in fields]
    oddity = _odd(draw, list(FIELD_ODDITIES), odd_share=0.2)
    if oddity is not None:
        at = draw(st.integers(0, 1))
        fields[at] = FIELD_ODDITIES[oddity](fields[at])
    return ",".join(fields)


@st.composite
def tick_files(draw):
    """Tick CSV bytes with blank lines, CRLF and duplicate timestamps, now and then an
    odd line, header or line end, or a byte that is not UTF-8."""
    header = _odd(draw, ['"timestamp_ns","price"', "timestamp_ns, price", "time,price"],
                  odd_share=0.05) or "timestamp_ns,price"
    rows = st.one_of(tick_rows(), tick_rows(), tick_rows(), st.just(""))
    if _rarely(draw, 0.1):
        rows = st.one_of(rows, st.sampled_from(ODD_LINES))
    lines = draw(st.lists(rows, max_size=8))
    ends = ["\n", "\r\n"] + (["\r"] if _rarely(draw, 0.1) else [])
    data = "".join(line + draw(st.sampled_from(ends)) for line in [header] + lines).encode()
    if _rarely(draw, 0.05):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _parse_outcome(parse, data):
    """Sorted tick bytes, or the class and message (with its line) of the error raised."""
    try:
        ticks = parse(data)
    except EntroportError as exc:
        return type(exc), str(exc)
    return ticks[np.argsort(ticks["timestamp"], kind="stable")].tobytes()


@settings(deadline=None, max_examples=400)
@given(tick_files())
def test_parse_ticks_equals_line_loop(data):
    assert _parse_outcome(parse_tick_file, data) == _parse_outcome(_parse_ticks_lines, data)


@pytest.mark.parametrize("line", [f"{ts},{price}".encode() for ts in ("7", " +7\t")
                                  for price in ["2.5", "+1E-3 "] + BAD_PRICES]
                         + [f"{odd('7')},2.5".encode() for odd in FIELD_ODDITIES.values()]
                         + [f"7,{odd('2.5')}".encode() for odd in FIELD_ODDITIES.values()]
                         + [line.encode() for line in ODD_LINES]
                         + [b"7,2.5\xa0", b"7\xff,2.5"])
def test_each_odd_line_parses_as_in_line_loop(line):
    data = b"timestamp_ns,price\n3,1.5\n" + line + b"\n"
    assert _parse_outcome(parse_tick_file, data) == _parse_outcome(_parse_ticks_lines, data)


@settings(deadline=None, max_examples=400)
@given(start=st.integers(-10**15, 10**15), delta=st.integers(1, 10**12),
       length=st.integers(1, 400), data=st.data())
def test_first_sample_at_equals_searchsorted_over_times(start, delta, length, data):
    """resample's first index is the first grid time at or after a tick at t."""
    times = start + delta * np.arange(length, dtype=np.int64)
    span = delta * length
    # anywhere from well before the first sample to well after the last, or next to a sample
    t = data.draw(st.one_of(
        st.integers(start - 2 * span, start + 2 * span),
        st.builds(lambda k, off: start + k * delta + off, st.integers(-2, length + 1),
                  st.integers(-1, 1))), label="t")
    first, _ = resample(np.array([(t, 1.0)], dtype=TICK_DTYPE), start, delta)
    assert min(max(first, 0), length) == int(np.searchsorted(times, t))


def _slice_by_times(start, delta, length, lo_ns, end_ns):
    """slice_horizon's range as a search over the sample times gives it, or HorizonError."""
    times = np.array([start + k * delta for k in range(length)], dtype=object)  # may pass int64
    if times[-1] < end_ns - delta:
        return HorizonError
    lo, hi = np.searchsorted(times, [lo_ns, end_ns]).tolist()
    return HorizonError if lo >= hi else slice(lo, hi)


@settings(deadline=None, max_examples=300)
@given(months=st.integers(1, 12), mode=st.sampled_from(["expanding", "monthly"]),
       data=st.data())
def test_slice_horizon_equals_searchsorted_over_times(months, mode, data):
    year_start = date(2018, 1, 1)
    start_ns, end_ns = date_ns(year_start), month_start_ns(year_start, months)
    year = month_start_ns(year_start, 12) - start_ns
    delta = data.draw(st.integers(year // 200, year), label="delta")
    start = data.draw(st.integers(start_ns - year, end_ns), label="start")
    length = data.draw(st.integers(1, 603), label="length")
    lo_ns = (month_start_ns(year_start, months - 1)
             if mode == "monthly" and months > 1 else start_ns)
    try:
        got = slice_horizon(start, delta, length, year_start, months, mode=mode)
    except HorizonError:
        got = HorizonError
    assert got == _slice_by_times(start, delta, length, lo_ns, end_ns)


# flat runs of integers give exact-zero deviations; floats give generic ones
levels = st.one_of(st.integers(min_value=-2, max_value=2),
                   st.floats(min_value=-1, max_value=1, allow_nan=False))
level_runs = st.lists(st.tuples(levels, st.integers(min_value=1, max_value=6)),
                      min_size=2, max_size=40)


@settings(deadline=None, max_examples=300)
@given(runs=level_runs, data=st.data())
def test_pass_histograms_equal_histogram_of_each_slice(runs, data):
    values = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
    length = len(values)
    n = data.draw(st.integers(2, length), label="n")
    min_clusters = data.draw(st.integers(1, 8), label="min_clusters")
    cuts = data.draw(st.lists(st.integers(1, length - 1), max_size=4, unique=True))
    bounds = [0, *sorted(cuts), length]
    months = list(zip(bounds[:-1], bounds[1:]))       # disjoint
    expanding = [(0, stop) for stop in bounds[1:]]    # nested, stops shared with months
    starts = data.draw(st.lists(st.integers(0, length - 1), max_size=4))
    overlaps = [(s, data.draw(st.integers(s + 1, length))) for s in starts]
    spans = data.draw(st.permutations(months + expanding + overlaps), label="spans")

    got = crossing_pass(PrefixTables(values), n).distributions(spans, min_clusters)
    for (start, stop), result in zip(spans, got):
        if stop - start < n:
            assert type(result) is DataError
            assert str(result) == f"window n={n} out of range for series of length {stop - start}"
            continue
        counts = Counter(np.diff(_sign_rule_pass(values[start:stop], n)[0]).tolist())
        total = sum(counts.values())
        if total < min_clusters:
            assert type(result) is InsufficientClustersError
            assert str(result) == f"{total} clusters at n={n}, need >= {min_clusters}"
            continue
        taus = sorted(counts)
        got_taus, got_counts = result
        assert got_taus.tolist() == taus
        assert got_counts.tolist() == [counts[t] for t in taus]
        assert (got_counts / got_counts.sum()).tolist() == [counts[t] / total for t in taus]


def _convolve_signs(values, n):
    """The signs of y - moving_average(y, n), from np.convolve."""
    return np.sign(values[n - 1:] - np.convolve(values, np.full(n, 1.0 / n), mode="valid"))


def _sign_rule_pass(values, n):
    """times and previous of crossing_pass by the previous-nonzero sign rule alone."""
    sign = _convolve_signs(values, n)
    nonzero = np.flatnonzero(sign)
    sv = sign[nonzero]
    flip = np.flatnonzero(sv[1:] != sv[:-1])
    nonzero += n - 1
    return nonzero[flip + 1], nonzero[flip]


def _float_series(draw):
    """Gaussian noise: no deviation from the mean is exactly zero."""
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    length = draw(st.integers(2, 300), label="length")
    return np.random.default_rng(seed).standard_normal(length)


def _flat_integer_runs(draw):
    """Flat runs of small integers: exact-zero deviations wherever a run spans n."""
    runs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 8)), min_size=2,
                         max_size=40), label="runs")
    return np.repeat([float(v) for v, _ in runs], [k for _, k in runs])


def _mixed_runs(draw):
    runs = draw(level_runs, label="level runs")
    return np.repeat([float(v) for v, _ in runs], [k for _, k in runs])


@settings(deadline=None, max_examples=300)
@given(make=st.sampled_from([_float_series, _flat_integer_runs, _mixed_runs]),
       data=st.data())
def test_crossing_pass_equals_sign_rule(make, data):
    values = make(data.draw)
    n = data.draw(st.integers(2, len(values)), label="n")
    got = crossing_pass(PrefixTables(values), n)
    times, previous = _sign_rule_pass(values, n)
    assert got.times.dtype == times.dtype and got.previous.dtype == previous.dtype
    assert got.times.tobytes() == times.tobytes()
    assert got.previous.tobytes() == previous.tobytes()


@settings(deadline=None, max_examples=200)
@given(make=st.sampled_from([_float_series, _flat_integer_runs, _mixed_runs]),
       data=st.data())
def test_pass_histograms_meet_the_distribution_invariants(make, data):
    values = make(data.draw)
    n = data.draw(st.integers(2, len(values)), label="n")
    stops = data.draw(st.lists(st.integers(n, len(values)), min_size=1, max_size=4))
    cpass = crossing_pass(PrefixTables(values), n)
    for dist in cpass.distributions([(0, stop) for stop in stops], 1):
        if not isinstance(dist, tuple):
            continue
        taus, counts = dist
        assert taus.dtype == np.int64 and counts.dtype == np.int64
        assert taus.ndim == 1 and taus.shape == counts.shape
        assert taus[0] >= 1 and np.all(np.diff(taus) > 0)
        assert np.all(counts > 0)
        # P from int64 counts has the bytes of P from the same counts as float64
        want = counts.astype(float) / counts.astype(float).sum()
        curve = entropy_curve(counts)
        assert type(curve) is np.ndarray and curve.dtype == np.float64
        assert np.all(curve >= 0)
        assert curve.tobytes() == (-np.log(want)).tobytes()
        i_n = entropy_index(curve)
        assert type(i_n) is float
        assert i_n == functools.reduce(operator.add, curve.tolist(), 0.0)


def _return_like(draw):
    """Signed, heavy-tailed returns around a small drift."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return 1e-4 + 1e-3 * rng.standard_t(3, draw(st.integers(2, 300), label="length"))


def _zero_windows(draw):
    """Flat integer runs between runs of zeros, so whole windows are 0."""
    runs = draw(st.lists(st.tuples(st.sampled_from([0, 0, 1, 3]), st.integers(1, 40)),
                         min_size=2, max_size=12), label="runs")
    return np.repeat([float(v) for v, _ in runs], [k for _, k in runs])


def _scaled(draw):
    """Gaussian series at 10**e for e in [-300, 300]."""
    return _float_series(draw) * 10.0 ** draw(st.integers(-300, 300), label="e")


def _overflowing(draw):
    """Values near the float64 maximum: the prefix sums overflow to inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.uniform(0.2, 1.0, draw(st.integers(2, 120), label="length")) * 1.7e308
    return values * draw(st.sampled_from([1.0, -1.0]), label="sign")


def _half_ulp_steps(draw):
    """Zeros, then b = 2**e, then values of half an ulp of b (times a sign).

    Each half ulp rounds the prefix sum back to b (ties to even), so past b
    the window sums read 0 against an exact n * ulp(b) / 2, and d lies within
    an ulp of 0: the prefix-sum error reaches the bound's window term.
    """
    b = 2.0 ** draw(st.integers(-1000, 1000), label="e")
    values = np.full(draw(st.integers(2, 120), label="length"), b * 2.0 ** -53)
    values[:draw(st.integers(0, len(values) - 1), label="zeros")] = 0.0
    values[np.flatnonzero(values)[0]] = b
    return values * draw(st.sampled_from([1.0, -1.0]), label="sign")


def _long_with_flat_run(draw):
    """A long Gaussian series with one flat run: a few signs in doubt, so the pass convolves."""
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1),
                                        label="seed")).standard_normal(2**15)
    at = draw(st.integers(0, len(values) - 40), label="at")
    values[at:at + draw(st.integers(2, 40), label="run")] = values[at]
    return values


# cut at len(y); from n = 12 np.convolve leaves its short-kernel loop for a dot per output
N_GRID = (2, 3, 4, 5, 7, 8, 11, 12, 16, 17, 24, 32, 33, 50, 64)


_SIGN_SOURCES = [_float_series, _return_like, _flat_integer_runs, _zero_windows, _scaled,
                 _overflowing, _half_ulp_steps, _long_with_flat_run]
SIGN_SOURCES = st.sampled_from(_SIGN_SOURCES)


def _check_pass(tables: PrefixTables, n: int) -> str:
    """crossing_pass(tables, n) against the np.convolve sign oracle; returns its rule.

    times and previous equal the oracle's bytes. The rule is the flat-run skip
    exactly when n <= flat_run, and "signs certified" only where the oracle
    has no zero or NaN sign, since certified signs are never zero.
    """
    values = tables.series
    with np.errstate(over="ignore", invalid="ignore"):
        cpass = crossing_pass(tables, n)
        times, previous = _sign_rule_pass(values, n)
        signs = _convolve_signs(values, n)
    assert cpass.times.tobytes() == times.tobytes(), n
    assert cpass.previous.tobytes() == previous.tobytes(), n
    if n <= tables.flat_run:
        assert cpass.rule == f"full convolve (flat run {tables.flat_run} >= n)", n
    else:
        assert cpass.rule in ("signs certified", "full convolve (signs in doubt)"), n
    if cpass.rule == "signs certified":
        assert np.all(np.abs(signs) == 1), n
    return cpass.rule


@settings(deadline=None, max_examples=300)
@given(make=SIGN_SOURCES, data=st.data())
def test_certified_signs_equal_convolve_signs(make, data):
    values = make(data.draw)
    shared = PrefixTables(values)  # as in the pipeline: one table for every n
    for n in [n for n in N_GRID if n <= len(values)]:
        for tables in (PrefixTables(values), shared):
            _check_pass(tables, n)


def _exact(*arrays) -> list[np.ndarray]:
    """Finite float arrays as arrays of Python ints, exact in one unit 2**-k."""
    parts = [np.frexp(np.asarray(x, dtype=float)) for x in arrays]
    k = max(int((53 - exponent).max()) for _, exponent in parts)
    return [np.ldexp(fraction, 53).astype(np.int64).astype(object)
            << (exponent + (k - 53)).astype(object) for fraction, exponent in parts]


@settings(deadline=None, max_examples=100)
@given(make=st.sampled_from([make for make in _SIGN_SOURCES if make is not _overflowing]),
       data=st.data())
def test_one_bound_covers_every_window(make, data):
    """The pass's one bound covers d~ against the convolved and the exact deviation.

    For each window, in exact integers: |d~ - (y - m~)| <= bound, m~ the
    np.convolve mean, whose deviation's sign is the one certified, and
    |d~ - d_exact| <= bound, d_exact from the window's exact sum, the
    difference of two exact prefix sums (times n on both sides). A bound too
    small fails here even where it flips no certified sign.
    """
    values = make(data.draw)
    tables = PrefixTables(values).tables
    for n in [n for n in N_GRID if n <= len(values)]:
        d, bound = _filter(tables, values, n)
        m = np.convolve(values, np.full(n, 1 / n), "valid")
        y, d, m, (bound,) = _exact(values, d, m, [bound])
        prefix = np.cumsum(np.concatenate([[0], y]))  # Python ints: exact
        y = y[n - 1:]
        assert (abs(d - (y - m)) <= bound).all(), n
        assert (abs(n * (d - y) + prefix[n:] - prefix[:-n]) <= n * bound).all(), n


def _longest_run(values) -> int:
    best = run = 1
    for a, b in zip(values, values[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


# runs of ties, signed zeros among them; the first and last runs end the series
tie_runs = st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1.7e308]),
                              st.integers(1, 9)), min_size=1, max_size=20)


@settings(deadline=None)
@given(runs=tie_runs)
def test_flat_run_equals_longest_run_loop(runs):
    values = np.repeat([v for v, _ in runs], [k for _, k in runs])
    flat_run = PrefixTables(values).flat_run
    assert flat_run == _longest_run(values.tolist())


@settings(deadline=None, max_examples=200)
@given(make=SIGN_SOURCES, data=st.data())
def test_no_pass_within_the_flat_run_is_certified(make, data):
    """A window of n equal values has exact deviation 0, which no error bound certifies."""
    values = make(data.draw)
    at = data.draw(st.integers(0, len(values) - 1), label="at")
    run = data.draw(st.integers(2, 60), label="run")
    values = np.insert(values, at, np.full(run - 1, values[at]))  # a run at least this long
    tables = PrefixTables(values)
    assert tables.flat_run >= run
    for n in range(2, min(tables.flat_run, len(values)) + 1):
        d, bound = _filter(tables.tables, values, n)
        assert not np.abs(d).min() > bound, n


@settings(deadline=None, max_examples=100)
@given(make=SIGN_SOURCES, data=st.data())
def test_shared_tables_answer_each_n_as_fresh_ones(make, data):
    """A pass leaves no state behind but the tables, so the order of n cannot matter."""
    values = make(data.draw)
    shared = PrefixTables(values)
    for n in data.draw(st.permutations([n for n in N_GRID if n <= len(values)]), label="order"):
        assert _check_pass(shared, n) == _check_pass(PrefixTables(values), n), n


# runs of repeated values, signed zeros, infinities and NaN
special_runs = st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, np.inf,
                                                   -np.inf, np.nan]),
                                  st.integers(min_value=1, max_value=6)),
                        min_size=1, max_size=25)


@settings(deadline=None)
@given(runs=special_runs, data=st.data())
def test_constant_window_mask_matches_max_equals_min(runs, data):
    r = np.repeat([v for v, _ in runs], [k for _, k in runs])
    if len(r) < 2:
        r = np.concatenate([r, r])
    w = data.draw(st.integers(2, len(r)))
    windows = sliding_window_view(r, w)
    with np.errstate(invalid="ignore"):
        expected = windows.max(axis=-1) == windows.min(axis=-1)
    assert _constant_windows(r, w).tolist() == expected.tolist()


# window counts: a few, or around one and two block edges of rolling_volatility
window_counts = st.one_of(st.integers(1, 40),
                          st.sampled_from([_VOL_BLOCK - 1, _VOL_BLOCK, _VOL_BLOCK + 1,
                                           2 * _VOL_BLOCK - 1, 2 * _VOL_BLOCK + 1]))


# magnitudes 1e-300..1e150 keep every sum of squares finite
exponent_ranges = st.tuples(st.integers(-300, 150), st.integers(-300, 150))
odd_shares = st.sampled_from([0.0, 0.1, 0.5, 0.9])


def _odd_returns(rng, length, exponents, odd_share):
    """Returns at magnitudes 10**exponents, odd_share of them +-0, subnormal or a tie."""
    r = rng.standard_normal(length) * 10.0 ** rng.integers(min(exponents),
                                                          max(exponents) + 1, length)
    odd = np.flatnonzero(rng.random(length) < odd_share)
    kinds = rng.integers(0, 3, len(odd))
    r[odd[kinds == 0]] = rng.choice([0.0, -0.0], np.count_nonzero(kinds == 0))
    r[odd[kinds == 1]] = rng.integers(-2**20, 2**20, np.count_nonzero(kinds == 1)) * 5e-324
    source = np.arange(length)
    source[odd[kinds == 2]] = 0
    return r[np.maximum.accumulate(source)]  # a tie repeats the last value before it


@settings(deadline=None, max_examples=300)
@given(w=st.integers(2, 300), count=window_counts, seed=st.integers(0, 2**32 - 1),
       exponents=exponent_ranges, odd_share=odd_shares)
def test_rolling_volatility_equals_std_bit_for_bit(w, count, seed, exponents, odd_share):
    # w up to 300 takes all three branches of the pairwise sum (< 8, <= 128, split)
    r = _odd_returns(np.random.default_rng(seed), count + w - 1, exponents, odd_share)
    windows = sliding_window_view(r, w)
    expected = windows.std(axis=-1, ddof=1)
    expected[windows.max(axis=-1) == windows.min(axis=-1)] = 0.0
    got = rolling_volatility(r, w)
    assert got.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=100)
@given(w=st.integers(2, 300), count=window_counts, seed=st.integers(0, 2**32 - 1),
       exponents=exponent_ranges, odd_share=odd_shares, data=st.data())
def test_a_price_range_takes_its_volatility_by_index(w, count, seed, exponents, odd_share,
                                                     data):
    """Prices [lo, hi) have returns r[lo:hi-1], whose volatility is vol[lo:hi-w] bit for bit.

    lo shifts the range's block edges off those of the whole series.
    """
    lo = data.draw(st.integers(0, _VOL_BLOCK + 1), label="lo")
    hi = lo + count + w  # the range's returns hold count windows
    r = _odd_returns(np.random.default_rng(seed), hi - 1 + data.draw(st.integers(0, 3)),
                     exponents, odd_share)
    assert rolling_volatility(r, w)[lo:hi - w].tobytes() == \
        rolling_volatility(r[lo:hi - 1], w).tobytes()


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 300),
       exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
       tie_share=st.sampled_from([0.0, 0.1, 0.5, 0.9]), data=st.data())
def test_a_price_range_takes_its_returns_by_index(seed, length, exponents, tie_share, data):
    """Prices [lo, hi) have returns r[lo:hi-1] bit for bit, simple and log.

    Prices of 1e-150..1e150 keep every simple return finite; a tie gives a 0 return.
    """
    rng = np.random.default_rng(seed)
    p = rng.uniform(1, 10, length) * 10.0 ** rng.integers(min(exponents),
                                                         max(exponents) + 1, length)
    source = np.arange(length)
    source[rng.random(length) < tie_share] = 0
    p = p[np.maximum.accumulate(source)]
    lo = data.draw(st.integers(0, length - 2), label="lo")
    hi = data.draw(st.integers(lo + 2, length), label="hi")
    for to_returns in (linear_returns, log_returns):
        assert to_returns(p)[lo:hi - 1].tobytes() == to_returns(p[lo:hi]).tobytes()


vectors = st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8)


@settings(deadline=None)
@given(vectors, st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_project_simplex_is_the_nearest_simplex_point(v, seed):
    p = _project_simplex(v)
    v = np.array(v)
    assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(_project_simplex(p), p, rtol=0, atol=1e-12)
    others = np.random.default_rng(seed).dirichlet(np.ones(len(v)), size=200)
    assert np.all(np.linalg.norm(others - v, axis=1) >= np.linalg.norm(p - v) - 1e-12)


def _project_simplex_numpy(v):
    """Reference: the projection as numpy sort / cumsum / maximum."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _ascend_numpy(w0, mu, sigma, max_iter=500):
    """Reference: the ascent with numpy @, the numpy gradient and projection."""
    w = w0.copy()
    var, mean = float(w @ sigma @ w), float(w @ mu)
    f = mean / math.sqrt(var) if var > 0 else -math.inf
    step = 1.0
    for _ in range(max_iter):
        if var <= 0:
            break
        sp = math.sqrt(var)
        grad = mu / sp - (mean / (sp * var)) * (sigma @ w)
        t = step
        for _ in range(40):
            cand = _project_simplex_numpy(w + t * grad)
            cvar, cmean = float(cand @ sigma @ cand), float(cand @ mu)
            fc = cmean / math.sqrt(cvar) if cvar > 0 else -math.inf
            if fc > f + 1e-15:
                w, f, var, mean = cand, fc, cvar, cmean
                step = min(t * 2.0, 1e6)
                break
            t *= 0.5
        else:
            break
    return w


finite = st.floats(allow_nan=False, allow_infinity=False)
projection_inputs = (
    st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 1 / 3])),
             min_size=1, max_size=8)
    # exact ties: every element drawn from a few values
    | st.lists(finite, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)))


@settings(deadline=None, max_examples=400)
@given(projection_inputs)
def test_project_simplex_equals_numpy_form_bit_for_bit(v):
    try:
        with np.errstate(all="ignore"):
            expected = _project_simplex_numpy(np.array(v))
    except IndexError:  # no index passes the test
        with pytest.raises(IndexError):
            _project_simplex(v)
        return
    assert _project_simplex(v).tobytes() == expected.tobytes()


@st.composite
def ascent_problems(draw):
    """A start, mixed-sign expected returns and a covariance from random factors;
    fewer factors than assets gives a singular covariance, which gets the ridge
    exactly as max_sharpe_weights adds it."""
    n = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=0))
    a = rng.standard_normal((n, draw(st.integers(min_value=1, max_value=n + 2))))
    sigma = a @ a.T * scale
    if np.linalg.eigvalsh(sigma).min() < 1e-14 * max(np.trace(sigma), 1e-300):
        eps = 1e-10 * np.trace(sigma) / n
        sigma = sigma + eps * np.eye(n)
    mu = rng.normal(0.02, 0.05, n) * np.sqrt(scale)
    mu[:2] = abs(mu[0]), -abs(mu[1])
    mu = mu[rng.permutation(n)]
    start = draw(st.sampled_from(["uniform", "vertex", "interior"]))
    if start == "uniform":
        w0 = np.full(n, 1.0 / n)
    elif start == "vertex":
        w0 = np.eye(n)[draw(st.integers(min_value=0, max_value=n - 1))]
    else:
        w0 = rng.dirichlet(np.ones(n))
    return w0, mu, sigma


@settings(deadline=None, max_examples=150)
@given(ascent_problems())
def test_ascend_equals_numpy_form_bit_for_bit(problem):
    w, f, _ = _ascend(*problem)
    assert w.tobytes() == _ascend_numpy(*problem).tobytes()
    # the score max_sharpe_weights picks the best start by is _sharpe's, bit for bit
    assert np.float64(f).tobytes() == np.float64(_sharpe(w, *problem[1:])).tobytes()


@settings(deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8)
       .filter(lambda x: sum(x) > 0))
def test_weight_entropy_lies_in_zero_to_log_n(raw):
    w = np.array(raw) / sum(raw)
    h = weight_entropy(w)
    assert 0.0 <= h <= np.log(len(w)) + 1e-12


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3).map(lambda e: 10.0 ** e),
                min_size=2, max_size=8))
def test_low_risk_weights_are_normalized_inverse_indices(raw):
    """The low-risk row, cluster_entropy_weights(1 / I), is (1/I) / sum(1/I) bit for bit,
    for 2 to 8 positive indices spread over six decades."""
    indices = np.array(raw)
    inverse = 1.0 / indices
    want = inverse / inverse.sum()
    assert cluster_entropy_weights(1.0 / indices).tobytes() == want.tobytes()


@st.composite
def interior_tangencies(draw):
    """Sigma = A A^T + c I and mu = Sigma y with y > 0: Sigma^-1 mu = y is in the
    simplex's interior once scaled, so y / sum(y) is the long-only optimum. c is at
    least 1e-3 trace(A A^T), far above the ridge threshold, and bounds Sigma's
    condition number by about 1000 N."""
    n = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    a = rng.standard_normal((n, draw(st.integers(min_value=1, max_value=n + 2))))
    gram = a @ a.T
    sigma = gram + draw(st.floats(1e-3, 1.0)) * np.trace(gram) * np.eye(n)
    sigma = (sigma + sigma.T) / 2 * 10.0 ** draw(st.integers(min_value=-6, max_value=0))
    y = rng.uniform(0.01, 1.0, n) * 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    return sigma @ y, sigma, y


@settings(deadline=None, max_examples=100)
@given(interior_tangencies())
def test_max_sharpe_reaches_an_interior_tangency(problem):
    mu, sigma, y = problem
    assert np.linalg.eigvalsh(sigma).min() >= 1e-14 * np.trace(sigma)  # no ridge
    got = max_sharpe_weights(mu, sigma)
    best = _sharpe(y / y.sum(), mu, sigma)
    assert abs(_sharpe(got, mu, sigma) - best) <= 1e-12 * best


def _argmax_loop_start(mu, sigma, divisions):
    """Reference: score every grid point in a Python list, first np.argmax wins."""
    n = len(mu)
    grid = [np.bincount(comp, minlength=n) / divisions
            for comp in itertools.combinations_with_replacement(range(n), divisions)]
    scores = [_sharpe(g, mu, sigma) for g in grid]
    return grid[int(np.argmax(scores))]


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_grid_start_equals_argmax_loop(n, distinct, seed, ridge):
    rng = np.random.default_rng(seed)
    # fewer distinct return paths than assets: duplicated assets tie exactly
    paths = rng.standard_normal((min(distinct, n), 40)) * rng.uniform(0.1, 3.0, (1, 1))
    returns = paths[np.arange(n) % len(paths)] + rng.normal(0.1, 0.3)
    mu, sigma = returns.mean(axis=1), np.cov(returns)
    if ridge:
        sigma = sigma + 1e-10 * np.trace(sigma) / n * np.eye(n)
    expected = _argmax_loop_start(mu, sigma, 10)
    assert _grid_start(mu, sigma, 10).tolist() == expected.tolist()


_FALSIFIED_THEN_TWO_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0))
def test_falsified(x):
    assert x < 0


def test_after_1():
    pass


def test_after_2():
    pass
"""


def test_falsified_property_prints_its_example_and_the_session_goes_on(tmp_path):
    """Under this repo's pytest config a falsified property is one failed test.

    Hypothesis imports libcst to write the example's .hypothesis/patches file,
    and libcst warns on import; raised as an error, that warning ends the
    session with an INTERNALERROR (exit 3) before the example is printed or
    the later tests run.
    """
    (tmp_path / "test_demo.py").write_text(_FALSIFIED_THEN_TWO_PASSING)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_falsified(" in proc.stdout
    assert "1 failed, 2 passed" in proc.stdout
