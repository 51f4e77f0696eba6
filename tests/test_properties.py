"""Property tests for the histogram, crossing, tick, volatility, simplex and ascent invariants
the pipeline relies on."""

import bisect
import itertools
import math
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from entroport import (ClusterDistribution, EntropyCurve, HorizonError, SampledSeries,
                       date_ns, month_start_ns, slice_horizon,
                       WeightVector, cluster_distribution, entropy_curve, entropy_index,
                       extract_clusters, parse_ticks, resample, weight_entropy)
from entroport.dma_cluster import PrefixTables, _certify, crossing_pass
from entroport.errors import EntroportError
from entroport.portfolio import _ascend, _grid_start, _project_simplex, _sharpe
from entroport.returns_vol import _VOL_BLOCK, _constant_windows, rolling_volatility
from entroport.series import _first_sample_at, _parse_ticks_lines

durations = st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=300)


@settings(deadline=None)
@given(durations)
def test_cluster_distribution_conserves_clusters_and_duration(taus_in):
    d = np.array(taus_in)
    dist = cluster_distribution(d, 10, min_clusters=1)
    assert dist.counts.sum() == len(d)
    assert (dist.taus * dist.counts).sum() == d.sum()
    assert np.all(np.diff(dist.taus) > 0)
    taus, counts = np.unique(d, return_counts=True)  # sort-based reference
    assert (dist.taus.tolist(), dist.counts.tolist()) == (taus.tolist(), counts.tolist())


@settings(deadline=None)
@given(durations, st.integers(min_value=1, max_value=500),
       st.sampled_from(["surprisal", "shannon_term"]))
def test_entropy_index_parts_add_up(taus_in, m, estimator):
    dist = cluster_distribution(taus_in, 10, min_clusters=1)
    curve = entropy_curve(dist, estimator)
    ix = entropy_index(curve, m)
    assert ix.power_law_part + ix.linear_part == ix.value
    # per-bin loop reference: the vectorised curve and split change no bit
    probs = dist.probabilities.tolist()
    per_bin = [float(-np.log(p)) if estimator == "surprisal" else float(-p * np.log(p))
               for p in probs]
    assert curve.values.tolist() == per_bin
    pairs = list(zip(dist.taus.tolist(), per_bin))
    assert ix.power_law_part == sum(s for t, s in pairs if t <= m)
    assert ix.linear_part == sum(s for t, s in pairs if t > m)


def _previous_tick_oracle(rows, delta):
    """Price of the latest tick at or before each grid time; file order breaks ties."""
    t0 = min(t for t, _ in rows)
    out = []
    for g in range(t0, max(t for t, _ in rows) + 1, delta):
        best = None
        for t, p in rows:
            if t <= g and (best is None or t >= best[0]):
                best = (t, p)
        out.append(best[1])
    return t0, out


# a narrow timestamp range makes duplicate timestamps common
ticks = st.lists(st.tuples(st.integers(min_value=-50, max_value=50),
                           st.floats(min_value=1e-6, max_value=1e6)),
                 min_size=1, max_size=40)


@settings(deadline=None)
@given(ticks, st.integers(min_value=1, max_value=30))
def test_parse_then_resample_matches_previous_tick_oracle(rows, delta):
    body = "timestamp_ns,price\n" + "".join(f"{t},{p!r}\n" for t, p in rows)
    series = resample(parse_ticks(body.encode()), delta)
    t0, expected = _previous_tick_oracle(rows, delta)
    assert series.start_time == t0
    assert series.values.tolist() == expected


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
ODD_LINES = [" ", "\t", "5", "1,2,3", "\x1c", "#"]
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
    assert _parse_outcome(parse_ticks, data) == _parse_outcome(_parse_ticks_lines, data)


@pytest.mark.parametrize("line", [f"{ts},{price}".encode() for ts in ("7", " +7\t")
                                  for price in ["2.5", "+1E-3 "] + BAD_PRICES]
                         + [f"{odd('7')},2.5".encode() for odd in FIELD_ODDITIES.values()]
                         + [f"7,{odd('2.5')}".encode() for odd in FIELD_ODDITIES.values()]
                         + [line.encode() for line in ODD_LINES]
                         + [b"7,2.5\xa0", b"7\xff,2.5"])
def test_each_odd_line_parses_as_in_line_loop(line):
    data = b"timestamp_ns,price\n3,1.5\n" + line + b"\n"
    assert _parse_outcome(parse_ticks, data) == _parse_outcome(_parse_ticks_lines, data)


@settings(deadline=None, max_examples=400)
@given(start=st.integers(-10**15, 10**15), delta=st.integers(1, 10**12),
       length=st.integers(1, 400), data=st.data())
def test_first_sample_at_equals_searchsorted_over_times(start, delta, length, data):
    series = SampledSeries(np.ones(length), start_time=start, delta=delta)
    span = delta * length
    # anywhere from well before the first sample to well after the last, or next to a sample
    t = data.draw(st.one_of(
        st.integers(start - 2 * span, start + 2 * span),
        st.builds(lambda k, off: start + k * delta + off, st.integers(-2, length + 1),
                  st.integers(-1, 1))), label="t")
    assert _first_sample_at(series, t) == int(np.searchsorted(series.times(), t))


def _slice_by_times(series, lo_ns, end_ns):
    """slice_horizon's range as a search over the sample times gives it, or HorizonError.

    The times are Python ints: a drawn series can reach past int64, where
    series.times() wraps around.
    """
    if series.end_time < end_ns - series.delta:
        return HorizonError
    times = [series.start_time + k * series.delta for k in range(len(series))]
    lo, hi = bisect.bisect_left(times, lo_ns), bisect.bisect_left(times, end_ns)
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
    series = SampledSeries(np.ones(data.draw(st.integers(1, 603), label="length")),
                           start_time=start, delta=delta)
    lo_ns = (month_start_ns(year_start, months - 1)
             if mode == "monthly" and months > 1 else start_ns)
    try:
        got = slice_horizon(series, year_start, months, mode=mode)
    except HorizonError:
        got = HorizonError
    assert got == _slice_by_times(series, lo_ns, end_ns)


def _distribution_outcome(result):
    """taus, counts and probabilities of a distribution, or an error's class and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return result.taus.tolist(), result.counts.tolist(), result.probabilities.tolist()


# flat runs of integers give exact-zero deviations; floats give generic ones
levels = st.one_of(st.integers(min_value=-2, max_value=2),
                   st.floats(min_value=-1, max_value=1, allow_nan=False))
level_runs = st.lists(st.tuples(levels, st.integers(min_value=1, max_value=6)),
                      min_size=2, max_size=40)


@settings(deadline=None, max_examples=300)
@given(runs=level_runs, data=st.data())
def test_pass_histograms_equal_histogram_of_each_slice(runs, data):
    values = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
    y = SampledSeries(values, start_time=0, delta=1)
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

    got = crossing_pass(PrefixTables(y), n).distributions(spans, min_clusters)
    for (start, stop), result in zip(spans, got):
        try:
            expected = cluster_distribution(
                extract_clusters(y.with_values(values[start:stop]), n), n, min_clusters)
        except EntroportError as exc:
            expected = exc
        assert _distribution_outcome(result) == _distribution_outcome(expected)


def _sign_rule_pass(values, n):
    """times and previous of crossing_pass by the previous-nonzero sign rule alone."""
    ma = np.convolve(values, np.full(n, 1.0 / n), mode="valid")
    sign = np.sign(values[n - 1:] - ma)
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
    got = crossing_pass(PrefixTables(SampledSeries(values, start_time=0, delta=1)), n)
    times, previous = _sign_rule_pass(values, n)
    assert got.times.dtype == times.dtype and got.previous.dtype == previous.dtype
    assert got.times.tobytes() == times.tobytes()
    assert got.previous.tobytes() == previous.tobytes()


@settings(deadline=None, max_examples=200)
@given(make=st.sampled_from([_float_series, _flat_integer_runs, _mixed_runs]),
       data=st.data())
def test_pass_histograms_equal_checking_constructor(make, data):
    values = make(data.draw)
    n = data.draw(st.integers(2, len(values)), label="n")
    stops = data.draw(st.lists(st.integers(n, len(values)), min_size=1, max_size=4))
    cpass = crossing_pass(PrefixTables(SampledSeries(values, start_time=0, delta=1)), n)
    for dist in cpass.distributions([(0, stop) for stop in stops], 1):
        if not isinstance(dist, ClusterDistribution):
            continue
        checked = ClusterDistribution(n, dist.taus, dist.counts.astype(np.int64))
        assert dist.n == n
        assert dist.taus.dtype == np.int64 and dist.counts.dtype == np.float64
        for name in ("taus", "counts", "probabilities"):
            got, want = getattr(dist, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for estimator in ("surprisal", "shannon_term"):
            curve = entropy_curve(dist, estimator)
            EntropyCurve(curve.n, curve.taus, curve.values)  # passes the skipped check


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


SIGN_SOURCES = st.sampled_from([_float_series, _return_like, _flat_integer_runs,
                                _zero_windows, _scaled, _overflowing, _half_ulp_steps,
                                _long_with_flat_run])


@settings(deadline=None, max_examples=300)
@given(make=SIGN_SOURCES, data=st.data())
def test_certified_signs_equal_convolve_signs(make, data):
    values = make(data.draw)
    y = SampledSeries(values, start_time=0, delta=1)
    shared = PrefixTables(y)  # as in the pipeline: one table for every n
    for n in [n for n in N_GRID if n <= len(values)]:
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.sign(values[n - 1:] - np.convolve(values, np.full(n, 1 / n), "valid"))
            for tables in (PrefixTables(y), shared):
                got = np.sign(tables.deviations(n)[0])
                assert np.array_equal(got, want, equal_nan=True), n


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
    flat_run = PrefixTables(SampledSeries(values, start_time=0, delta=1)).flat_run
    assert flat_run == _longest_run(values.tolist())


@settings(deadline=None, max_examples=200)
@given(make=SIGN_SOURCES, data=st.data())
def test_no_pass_within_the_flat_run_is_certified(make, data):
    """A window of n equal values has exact deviation 0, which no error bound certifies."""
    values = make(data.draw)
    at = data.draw(st.integers(0, len(values) - 1), label="at")
    run = data.draw(st.integers(2, 60), label="run")
    values = np.insert(values, at, np.full(run - 1, values[at]))  # a run at least this long
    tables = PrefixTables(SampledSeries(values, start_time=0, delta=1))
    assert tables.flat_run >= run
    for n in range(2, min(tables.flat_run, len(values)) + 1):
        assert not _certify(tables.tables, values, n)[1], n


@settings(deadline=None, max_examples=100)
@given(make=SIGN_SOURCES, data=st.data())
def test_shared_tables_answer_each_n_as_fresh_ones(make, data):
    """A pass leaves no state behind but the tables, so the order of n cannot matter."""
    values = make(data.draw)
    y = SampledSeries(values, start_time=0, delta=1)
    shared = PrefixTables(y)
    for n in data.draw(st.permutations([n for n in N_GRID if n <= len(values)]), label="order"):
        with np.errstate(over="ignore", invalid="ignore"):
            (got, got_certified), (want, want_certified) = (shared.deviations(n),
                                                            PrefixTables(y).deviations(n))
        assert got_certified == want_certified, n
        assert np.array_equal(np.sign(got), np.sign(want), equal_nan=True), n


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


@settings(deadline=None, max_examples=300)
@given(w=st.integers(2, 300), count=window_counts, seed=st.integers(0, 2**32 - 1),
       exponents=st.tuples(st.integers(-300, 150), st.integers(-300, 150)),
       odd_share=st.sampled_from([0.0, 0.1, 0.5, 0.9]))
def test_rolling_volatility_equals_std_bit_for_bit(w, count, seed, exponents, odd_share):
    # w up to 300 takes all three branches of the pairwise sum (< 8, <= 128, split);
    # magnitudes 1e-300..1e150 keep every sum of squares finite
    rng = np.random.default_rng(seed)
    length = count + w - 1
    r = rng.standard_normal(length) * 10.0 ** rng.integers(min(exponents),
                                                          max(exponents) + 1, length)
    odd = np.flatnonzero(rng.random(length) < odd_share)
    kinds = rng.integers(0, 3, len(odd))
    r[odd[kinds == 0]] = rng.choice([0.0, -0.0], np.count_nonzero(kinds == 0))
    r[odd[kinds == 1]] = rng.integers(-2**20, 2**20, np.count_nonzero(kinds == 1)) * 5e-324
    source = np.arange(length)
    source[odd[kinds == 2]] = 0
    r = r[np.maximum.accumulate(source)]  # a tie repeats the last value before it
    windows = sliding_window_view(r, w)
    expected = windows.std(axis=-1, ddof=1)
    expected[windows.max(axis=-1) == windows.min(axis=-1)] = 0.0
    got = rolling_volatility(SampledSeries(r, start_time=0, delta=1), w).values
    assert got.tobytes() == expected.tobytes()


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
    w, _ = _ascend(*problem)
    assert w.tobytes() == _ascend_numpy(*problem).tobytes()


@settings(deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8)
       .filter(lambda x: sum(x) > 0))
def test_weight_entropy_lies_in_zero_to_log_n(raw):
    w = np.array(raw) / sum(raw)
    h = weight_entropy(WeightVector(w, tuple(f"a{i}" for i in range(len(w)))))
    assert 0.0 <= h <= np.log(len(w)) + 1e-12


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
