"""Moving-average cluster machinery.

A cluster is the stretch of a series between two consecutive intersections
with its trailing moving average. Durations are counted in sampling units
and binned into a histogram, the pair (taus, counts) of int64 arrays: the
observed durations, strictly ascending, and the cluster count of each. The
counts give P(tau, n) = counts / counts.sum() and a per-bin entropy curve,
the float64 array S = -ln P, which is summed over every bin into one float
I(n) per moving-average window.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce

import numpy as np

from .errors import (DataError, EmptyInputError, EntroportError,
                     InsufficientClustersError, check_finite)

#: clusters required before a duration distribution counts as statistically valid
MIN_CLUSTERS = 50


def _window_error(n: int, length: int) -> DataError:
    return DataError(f"window n={n} out of range for series of length {length}")


def _too_few_clusters(n_clusters: int, n: int,
                      min_clusters: int) -> InsufficientClustersError:
    return InsufficientClustersError(
        f"{n_clusters} clusters at n={n}, need >= {min_clusters}")


def moving_average(y: np.ndarray, n: int) -> np.ndarray:
    """Trailing (causal) mean of the n most recent samples; out[k] is the mean of y[k:k+n]."""
    if not 2 <= n <= len(y):
        raise _window_error(n, len(y))
    check_finite(y)
    return np.convolve(y, np.full(n, 1.0 / n), mode="valid")


class CrossingPass:
    """Crossings of y - moving_average(y, n) over a whole series, cut into spans by index.

    times: positions in y where the deviation's sign differs from its sign at
    the previous nonzero deviation, which sits at previous[k]. rule is how
    the signs were settled, as -v prints it (see crossing_pass).
    """

    __slots__ = ("n", "times", "previous", "rule")

    def __init__(self, n: int, times: np.ndarray, previous: np.ndarray, rule: str):
        self.n, self.times, self.previous, self.rule = n, times, previous, rule

    def distributions(self, spans: list[tuple[int, int]],
                      min_clusters: int = MIN_CLUSTERS
                      ) -> list[tuple[np.ndarray, np.ndarray] | EntroportError]:
        """The histogram of y[start:stop]'s cluster durations, for each span.

        A histogram is the pair (taus, counts) that _pass_histogram makes:
        the observed durations, strictly ascending, and their int64 counts.
        The durations are the diffs of the crossing times that a pass over
        y[start:stop] alone finds; the partial clusters at either end are not
        counted. Where there is no histogram, the entry is the exception: a
        DataError when the span is shorter than n, an InsufficientClustersError
        below min_clusters (>= 1) durations. The trailing mean is causal, so a
        span's crossings are the whole series' times[lo:hi]: hi counts the
        times before stop, and lo drops those whose previous nonzero deviation
        precedes the span's first deviation, at start + n - 1. Its durations
        are diff(times)[lo:hi-1], so spans are walked in (start, stop) order
        and those sharing a start grow one running bincount, each adding only
        the durations past the previous stop. Dropped spans add theirs too;
        too-short spans add none.
        """
        durations = np.diff(self.times)
        size = int(durations.max()) + 1 if len(durations) else 1
        out: list[tuple[np.ndarray, np.ndarray] | EntroportError] = [None] * len(spans)
        acc_start = None
        for i in sorted(range(len(spans)), key=spans.__getitem__):
            start, stop = spans[i]
            if self.n > stop - start:
                out[i] = _window_error(self.n, stop - start)
                continue
            if start != acc_start:  # acc counts durations[lo:end]
                acc_start = start
                lo = end = int(np.searchsorted(self.previous, start + self.n - 1))
                acc = np.zeros(size, dtype=np.int64)
            new_end = max(lo, int(np.searchsorted(self.times, stop)) - 1)
            acc += np.bincount(durations[end:new_end], minlength=size)
            end = new_end
            if end - lo < min_clusters:
                out[i] = _too_few_clusters(end - lo, self.n, min_clusters)
            else:
                out[i] = _pass_histogram(acc)
        return out


def _pass_histogram(acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(taus, counts) of a nonzero bincount of pass durations.

    The durations are diffs of strictly increasing crossing times, so the
    nonzero bins are strictly ascending taus >= 1 with positive int64 counts.
    """
    taus = np.flatnonzero(acc)
    return taus, acc[taus]


#: unit roundoff of float64 arithmetic (round to nearest)
_U = 2.0 ** -53
#: covers the O(u) roundings in forming the bound itself
_SLACK = 1 + 2.0 ** -40


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    return k * _U / (1 - k * _U)


def _tables(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Prefix sums of v, their error bound E and max|v|.

    E is u (max|prefix| + gamma_{len+3} sum|v|) plus 2**-1021 for underflow;
    crossing_pass's argument needs only the first term, the second is a margin.
    """
    prefix = np.empty(len(v) + 1)
    prefix[0] = 0.0
    abs_v = np.abs(v)
    with np.errstate(over="ignore"):  # an overflowing sum leaves the pass in doubt
        np.cumsum(v, out=prefix[1:])
        error = (np.abs(prefix).max() + _gamma(len(v) + 3) * abs_v.sum()) * (_U * _SLACK)
    return prefix, error + 2.0 ** -1021, abs_v.max()


def _filter(tables: tuple, v: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """v[n-1:] - MA_n from the tables of v, and one bound on every value's error."""
    prefix, error, v_max = tables
    c = 1.0 / n
    with np.errstate(over="ignore", invalid="ignore"):
        d = prefix[n:] - prefix[:-n]
        d *= c
        np.subtract(v[n - 1:], d, out=d)
        return d, error + c * (_gamma(n) + 2 * _U) * _SLACK * (n * v_max)


class PrefixTables:
    """One series, a finite array, shared by its crossing passes at every n.

    flat_run is its longest run of equal values; tables, its prefix sums and
    their error bound (see _tables), is built by the first pass that reads it.
    """

    def __init__(self, y: np.ndarray):
        check_finite(y)
        self.series = y
        ties = np.zeros(len(y) + 1, dtype=bool)  # ties[i]: y[i-1] == y[i]; False at both ends
        np.equal(y[1:], y[:-1], out=ties[1:-1])
        edges = np.flatnonzero(ties[1:] != ties[:-1]) if ties.any() else np.zeros(0, int)
        self.flat_run = int((edges[1::2] - edges[::2]).max(initial=0)) + 1

    @cached_property
    def tables(self) -> tuple:
        return _tables(self.series)


def crossing_pass(tables: PrefixTables, n: int) -> CrossingPass:
    """Where y - moving_average flips sign, and the nonzero deviation before each flip.

    y is tables.series. Only the signs of the deviations d are computed, each
    equal to its sign under moving_average(y, n), and one rule settles the
    whole pass, named in rule as -v prints it. An n > len(y) gives no
    crossings ("no pass"); an n < 2 is moving_average's DataError.

    Past the flat run, d~ = y[n-1:] - (P[n:] - P[:-n]) * c is formed from the
    prefix sums P (c = fl(1/n)), and sign(d~) = sign(d) is certified wherever
    |d~| exceeds a bound on |d~ - d|: the filter-then-exact pattern of robust
    predicates (Shewchuk 1997). One bound serves every window of a pass:
    E + kappa_n fl(n max|y|), E one number for the whole series (see _tables)
    and kappa_n = c (gamma_n + 2u) _SLACK. np.cumsum adds in order, each step
    rounding by at most u |P[k]|, so a window sum is off by at most
    u n max|P|, which E covers (c n <= 1 + u). On the window y[i:i+n], whose
    exact sum of |y| is X_i <= n max|y|, np.convolve's length-n dot product is
    off by at most gamma_n c X_i in any summation order, with or without FMA
    (Higham 2002, section 3.1); kappa_n X_i covers that and the filter's own
    roundings, and the one rounding of n max|y| falls within _SLACK. Because
    fl(a - b) has the sign of a - b, a certified sign is exact. If every sign
    is certified ("signs certified"), none is zero and the flips are read from
    one boolean d~ > 0. Otherwise (a sign in doubt, or d~ NaN or inf where a
    prefix sum overflows) the full moving_average gives them all ("full
    convolve (signs in doubt)"), and as it may hold exact zeros, each sign is
    compared with the last nonzero one's. The bound covers |d~ - d_exact|
    too, so where d_exact = 0, as in a window of n equal values, no sign is
    certified: a pass with n <= flat_run convolves without trying ("full
    convolve (flat run L >= n)"), and the first pass past it builds the tables.
    """
    y = tables.series
    if n > len(y):  # no deviation, so every span is too short
        return CrossingPass(n, np.zeros(0, np.intp), np.zeros(0, np.intp), "no pass")
    if n <= tables.flat_run:
        why = f"flat run {tables.flat_run} >= n"
    else:
        d, bound = _filter(tables.tables, y, n)
        if np.abs(d).min() > bound:  # False for NaN: not certified
            pos = d > 0
            flip = np.flatnonzero(pos[1:] != pos[:-1])
            return CrossingPass(n, flip + n, flip + (n - 1), "signs certified")
        why = "signs in doubt"
    sign = np.sign(y[n - 1:] - moving_average(y, n))
    nonzero = np.flatnonzero(sign)
    sv = sign[nonzero]
    flip = np.flatnonzero(sv[1:] != sv[:-1])
    nonzero += n - 1  # positions in y
    return CrossingPass(n, nonzero[flip + 1], nonzero[flip], f"full convolve ({why})")


def entropy_curve(counts: np.ndarray) -> np.ndarray:
    """Surprisal S(tau, n) = -ln P(tau, n) >= 0 in nats per observed bin, aligned with the taus.

    P(tau, n) = counts / counts.sum(); counts are positive, and a model
    distribution may give fractional ones. S grows logarithmically in the
    power-law regime and linearly past the cutoff.
    """
    return -np.log(counts / counts.sum())


def _sum_in_order(values) -> float:
    """0.0 + v0 + v1 + ..., rounded left to right on every Python.

    Builtin sum does so up to 3.11, but adds floats with Neumaier compensation
    from 3.12 on, which gives other bytes for the same values.
    """
    return reduce(operator.add, values, 0.0)


def entropy_index(curve: np.ndarray) -> float:
    """I(n): the curve's values over every observed bin, added left to right in ascending tau."""
    if len(curve) == 0:
        raise EmptyInputError("entropy curve has no points")
    return _sum_in_order(curve.tolist())


def aggregate_index(indices: list[float], how: str = "sum") -> float:
    """Combine per-window indices over the grid; sum by default.

    The arithmetic mean divides by the count of indices given. It leaves
    normalized portfolio weights unchanged only when every asset keeps the
    same number of n points: an n dropped for one asset alone changes its
    divisor alone.
    """
    if not indices:
        raise EmptyInputError("no entropy indices to aggregate")
    if how not in ("sum", "mean"):
        raise ValueError(f"unknown aggregation {how!r}")
    total = float(_sum_in_order(indices))
    return total / len(indices) if how == "mean" else total
