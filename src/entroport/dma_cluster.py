"""Moving-average cluster machinery.

A cluster is the stretch of a series between two consecutive intersections
with its trailing moving average. Durations are counted in sampling units,
binned into an empirical distribution, turned into a per-bin entropy curve
(surprisal by default) and summed into a scalar index per moving-average
window, reported split at a threshold between the power-law and linear regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DataError, EmptyInputError, EntroportError,
                     InsufficientClustersError)
from .series import SampledSeries

#: clusters required before a duration distribution counts as statistically valid
MIN_CLUSTERS = 50


@dataclass(frozen=True)
class ClusterDistribution:
    """Histogram of cluster durations for one window length n.

    taus are the observed durations (samples, strictly ascending), counts the
    cluster count per duration and probabilities the normalized counts.
    Counts may be fractional when a model distribution is supplied directly
    (diagnostics and tests). This constructor, which cluster_distribution
    uses, checks all of that; CrossingPass.distributions builds through the
    unchecked _pass_histogram instead, whose bins meet the checks by
    construction.
    """

    n: int
    taus: np.ndarray
    counts: np.ndarray
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=float)
        if taus.ndim != 1 or taus.shape != counts.shape:
            raise DataError("taus and counts must be 1-D and of equal length")
        if len(taus) == 0:
            raise EmptyInputError("distribution needs at least one duration bin")
        if taus[0] < 1 or np.any(np.diff(taus) <= 0):
            raise DataError("durations must be >= 1 sample and strictly ascending")
        if np.any(counts <= 0):
            raise DataError("cluster counts must be positive")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probabilities", counts / counts.sum())


@dataclass(frozen=True)
class EntropyCurve:
    """Per-duration entropy values S(tau, n) in nats, observed bins only.

    taus are the distribution's, strictly ascending. This constructor checks
    the values; entropy_curve skips the check, since -ln p and -p ln p are
    non-negative for every p in (0, 1].
    """

    n: int
    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < -1e-12):
            raise DataError("entropy values must be non-negative")


@dataclass(frozen=True)
class EntropyIndex:
    """Scalar index for one window length, split at threshold m."""

    n: int
    threshold: int
    value: float
    power_law_part: float
    linear_part: float


@dataclass(frozen=True)
class ClusterModelFit:
    """Least-squares fit diagnostics of a duration distribution (no cutoff term).

    D is the exponent of a pure power law ln P = -D ln tau + const fitted
    over tau_range (fractal dimension; Hurst exponent = 2 - D), and S0 the
    fit's intercept on the surprisal curve -ln P. linear_slope is a separate
    straight-line slope of the surprisal on tau in (n, 5n], the linear
    regime (nan when fewer than 3 bins fall there).
    """

    D: float
    S0: float
    linear_slope: float
    tau_range: tuple[float, float]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, without __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _window_error(n: int, length: int) -> DataError:
    return DataError(f"window n={n} out of range for series of length {length}")


def _too_few_clusters(n_clusters: int, n: int,
                      min_clusters: int) -> InsufficientClustersError:
    return InsufficientClustersError(
        f"{n_clusters} clusters at n={n}, need >= {min_clusters}")


def moving_average(y: SampledSeries, n: int) -> SampledSeries:
    """Trailing (causal) mean of the n most recent samples; len out = len - n + 1."""
    v = y.values
    if not 2 <= n <= len(v):
        raise _window_error(n, len(v))
    out = np.convolve(v, np.full(n, 1.0 / n), mode="valid")
    return y.with_values(out, start_time=y.start_time + (n - 1) * y.delta)


@dataclass(frozen=True)
class CrossingPass:
    """Crossings of y - moving_average(y, n) over a whole series, cut into spans by index.

    times: positions in y where the deviation's sign differs from its sign at
    the previous nonzero deviation, which sits at previous[k].
    """

    n: int
    times: np.ndarray
    previous: np.ndarray
    #: whether the prefix sums certified every sign (else np.convolve gave them)
    certified: bool

    def distributions(self, spans: list[tuple[int, int]],
                      min_clusters: int = MIN_CLUSTERS
                      ) -> list[ClusterDistribution | EntroportError]:
        """cluster_distribution(extract_clusters(y[start:stop], n)) for each span.

        Where that call would raise, the entry is the exception: a DataError
        when the span is shorter than n, an InsufficientClustersError below
        min_clusters. The trailing mean is causal, so a span's crossings are
        the whole series' times[lo:hi]: hi counts the times before stop, and
        lo drops those whose previous nonzero deviation precedes the span's
        first deviation, at start + n - 1. Its durations are diff(times)[lo:hi-1],
        so spans are walked in (start, stop) order and those sharing a start
        grow one running bincount, each adding only the durations past the
        previous stop. Dropped spans add theirs too; too-short spans add none.
        """
        durations = np.diff(self.times)
        size = int(durations.max()) + 1 if len(durations) else 1
        out: list[ClusterDistribution | EntroportError] = [None] * len(spans)
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
            elif end == lo:  # only when min_clusters < 1
                raise EmptyInputError("distribution needs at least one duration bin")
            else:
                out[i] = _pass_histogram(self.n, acc)
        return out


def _pass_histogram(n: int, acc: np.ndarray) -> ClusterDistribution:
    """ClusterDistribution of a nonzero bincount of pass durations, unchecked.

    The durations are diffs of strictly increasing crossing times, so the
    nonzero bins are strictly ascending taus >= 1 with positive counts:
    ClusterDistribution's checks hold by construction. Counts and
    probabilities are formed as its constructor forms them.
    """
    taus = np.flatnonzero(acc)
    counts = acc[taus].astype(float)
    return _unchecked(ClusterDistribution, n=n, taus=taus, counts=counts,
                      probabilities=counts / counts.sum())


#: unit roundoff of float64 arithmetic (round to nearest)
_U = 2.0 ** -53
#: covers the O(u) roundings in forming the bound itself
_SLACK = 1 + 2.0 ** -40


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    return k * _U / (1 - k * _U)


def _tables(v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Prefix sums of v, of |v| (None when v >= 0: the same) and their error bound.

    The bound, one number for every window, is u (max|prefix| + gamma_{len+3}
    sum|v|), the second term for the |v| sums' own rounding, plus 2**-1021
    for underflow.
    """
    prefix = np.empty(len(v) + 1)
    prefix[0] = 0.0
    gamma = _gamma(len(v) + 3)
    with np.errstate(over="ignore"):  # an inf entry leaves the pass in doubt
        np.cumsum(v, out=prefix[1:])
        if v.min() >= 0:  # prefix is nondecreasing: its own |.| sums and maximum
            abs_prefix = None
            error = prefix[-1] * ((1 + gamma) * _U * _SLACK)
        else:
            abs_prefix = np.empty(len(v) + 1)
            abs_prefix[0] = 0.0
            np.cumsum(np.abs(v), out=abs_prefix[1:])
            error = (np.abs(prefix).max() + gamma * abs_prefix[-1]) * (_U * _SLACK)
    return prefix, abs_prefix, error + 2.0 ** -1021


def _certify(tables: tuple, v: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """v[n-1:] - MA_n from the tables of v, and whether every sign of it is certified."""
    prefix, abs_prefix, error = tables
    c = 1.0 / n
    with np.errstate(over="ignore", invalid="ignore"):
        bound = prefix[n:] - prefix[:-n]
        d = bound * c
        np.subtract(v[n - 1:], d, out=d)
        if abs_prefix is not None:
            bound = abs_prefix[n:] - abs_prefix[:-n]
        bound *= c * (_gamma(n) + 2 * _U) * _SLACK
        bound += error
        return d, bool(np.all(np.abs(d) > bound))  # False for NaN: not certified


class PrefixTables:
    """Prefix sums of one series, shared by its crossing passes at every n.

    deviations(n) forms d~ = y[n-1:] - (P[n:] - P[:-n]) * c from the prefix
    sums P (c = fl(1/n)) and certifies sign(d~) = sign(d), d the deviation
    under moving_average, wherever |d~| exceeds a bound on |d~ - d|: the
    filter-then-exact pattern of robust predicates (Shewchuk 1997). For the
    window y[i:i+n] the bound is E + kappa_n X_i, X_i the window's sum of
    |y| (from P itself when y >= 0, as every volatility series is) and E one
    number for the whole series (see _tables). np.cumsum adds in order, each
    step rounding by at most u |P[k]|, so a window sum is off by at most
    u n max|P|, which E covers (c n <= 1 + u). kappa_n X_i covers np.convolve's
    length-n dot product, off by at most gamma_n c X_i in any summation
    order, with or without FMA (Higham 2002, section 3.1), and the filter's
    own roundings. Because fl(a - b) has the sign of a - b, a certified sign
    is exact. One rule settles a pass: if every sign is certified, the prefix
    sums give them all; otherwise (a sign in doubt, NaN and inf included) the
    full moving_average gives them all. The bound covers |d~ - d_exact| too,
    so where d_exact = 0, as in a window of n equal values, |d~| <= bound and
    no sign is certified: a pass with n <= flat_run, the longest run of equal
    values, convolves without trying, and the first pass past it builds the tables.
    """

    def __init__(self, y: SampledSeries):
        self.series = y
        ties = np.zeros(len(y) + 1, dtype=bool)  # ties[i]: y[i-1] == y[i]; False at both ends
        np.equal(y.values[1:], y.values[:-1], out=ties[1:-1])
        edges = np.flatnonzero(ties[1:] != ties[:-1]) if ties.any() else np.zeros(0, int)
        self.flat_run = int((edges[1::2] - edges[::2]).max(initial=0)) + 1

    @cached_property
    def tables(self) -> tuple:
        return _tables(self.series.values)

    def deviations(self, n: int) -> tuple[np.ndarray, bool]:
        """y[n-1:] - MA_n, each sign as under moving_average(y, n), and whether certified.

        Only the signs are exact: a certified value is the filter's.
        """
        v = self.series.values
        if not 2 <= n <= len(v):
            raise _window_error(n, len(v))
        if n > self.flat_run:
            d, certified = _certify(self.tables, v, n)
            if certified:
                return d, True
        return v[n - 1:] - moving_average(self.series, n).values, False


def crossing_pass(tables: PrefixTables, n: int) -> CrossingPass:
    """Where y - moving_average flips sign, and the nonzero deviation before each flip.

    y is tables.series. Only the deviations' signs are computed, each equal
    to its sign under moving_average: all from the prefix sums of y when they
    certify every one, else all from the full np.convolve (see PrefixTables).
    Certified signs are never zero, so the flips are read from one boolean
    d > 0. A convolved pass may hold exact zeros (or NaN), so each sign is
    compared with the last nonzero one's.
    """
    d, certified = tables.deviations(n)
    if certified:
        pos = d > 0
        flip = np.flatnonzero(pos[1:] != pos[:-1])
        return CrossingPass(n=n, times=flip + n, previous=flip + (n - 1), certified=True)
    sign = np.sign(d)
    nonzero = np.flatnonzero(sign)
    sv = sign[nonzero]
    flip = np.flatnonzero(sv[1:] != sv[:-1])
    nonzero += n - 1  # positions in y
    return CrossingPass(n=n, times=nonzero[flip + 1], previous=nonzero[flip], certified=False)


def crossing_times(y: SampledSeries, n: int) -> np.ndarray:
    """Sample indices where y - moving_average strictly changes sign.

    Exact zeros are not crossings; runs of zeros are absorbed into the
    preceding cluster. Indices are absolute positions in y (the overlap
    region starts at n - 1).
    """
    return crossing_pass(PrefixTables(y), n).times


def extract_clusters(y: SampledSeries, n: int) -> np.ndarray:
    """Cluster durations (samples) between consecutive crossings.

    Partial segments before the first and after the last crossing are
    discarded. Fewer than two crossings yields an empty result.
    """
    return np.diff(crossing_times(y, n))


def cluster_distribution(durations, n: int,
                         min_clusters: int = MIN_CLUSTERS) -> ClusterDistribution:
    """Histogram of integer durations; errors below min_clusters observations.

    Durations are sample counts, so the bincount spans at most the series
    length; counting from the shortest lets a duration below 1 reach
    ClusterDistribution's check, which this checking path keeps.
    """
    durations = np.asarray(durations).astype(np.int64)
    if len(durations) < min_clusters:
        raise _too_few_clusters(len(durations), n, min_clusters)
    first = int(durations.min()) if len(durations) else 0
    acc = np.bincount(durations - first)
    taus = np.flatnonzero(acc)
    return ClusterDistribution(n=n, taus=taus + first, counts=acc[taus])


def entropy_curve(dist: ClusterDistribution,
                  estimator: str = "surprisal") -> EntropyCurve:
    """Entropy per observed duration bin.

    estimator='surprisal' (default): S = -ln P(tau, n), which grows
    logarithmically in the power-law regime and linearly past the cutoff.
    estimator='shannon_term': the per-bin summand -P ln P, kept switchable
    for sensitivity studies.
    """
    p = dist.probabilities
    if estimator == "surprisal":
        values = -np.log(p)
    elif estimator == "shannon_term":
        values = -p * np.log(p)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return _unchecked(EntropyCurve, n=dist.n, taus=dist.taus, values=values)


def entropy_index(curve: EntropyCurve, m: int) -> EntropyIndex:
    """Sum the whole entropy curve, reported split at threshold m.

    Bins with tau <= m feed the power-law part, tau > m the linear part;
    the shared endpoint tau = m is counted once, in the power-law part. value
    is power_law_part + linear_part, every observed bin, so m moves only the
    split (and value by the rounding of two partial sums at most).
    """
    if m < 1:
        raise DataError(f"threshold m must be >= 1, got {m}")
    if len(curve.taus) == 0:
        raise EmptyInputError("entropy curve has no points")
    k = int(np.searchsorted(curve.taus, m, "right"))
    # sequential sums in tau order keep the index bit-for-bit reproducible
    power = sum(curve.values[:k].tolist())
    linear = sum(curve.values[k:].tolist())
    return EntropyIndex(n=curve.n, threshold=m, value=power + linear,
                        power_law_part=power, linear_part=linear)


def aggregate_index(indices: list[EntropyIndex], how: str = "sum") -> float:
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
    total = float(sum(ix.value for ix in indices))
    return total / len(indices) if how == "mean" else total


def compute_entropy_index(y: SampledSeries, n: int, *, threshold_m: int | None = None,
                          estimator: str = "surprisal",
                          min_clusters: int = MIN_CLUSTERS) -> EntropyIndex:
    """Convenience path: series -> clusters -> distribution -> curve -> index.

    threshold_m defaults to n, the expected power-law / exponential crossover.
    """
    durations = extract_clusters(y, n)
    dist = cluster_distribution(durations, n, min_clusters=min_clusters)
    curve = entropy_curve(dist, estimator=estimator)
    return entropy_index(curve, n if threshold_m is None else threshold_m)


def fit_cluster_model(dist: ClusterDistribution,
                      fit_range: tuple[float, float]) -> ClusterModelFit:
    """Least-squares power-law fit ln P = -D ln tau + const over fit_range.

    Also fits the linear regime slope of the surprisal curve on
    tau in (n, 5n] when at least 3 bins fall there (nan otherwise).
    """
    lo, hi = fit_range
    taus, probs = dist.taus, dist.probabilities
    in_range = (taus >= lo) & (taus <= hi)
    if in_range.sum() < 3:
        raise DataError(
            f"need >= 3 bins in fit range [{lo}, {hi}], got {int(in_range.sum())}"
        )
    slope, intercept = np.polyfit(np.log(taus[in_range]),
                                  np.log(probs[in_range]), 1)
    d_fit = -float(slope)
    s0 = -float(intercept)

    lin_mask = (taus > dist.n) & (taus <= 5 * dist.n)
    if lin_mask.sum() >= 3:
        surprisal = -np.log(probs[lin_mask])
        lin_slope = float(np.polyfit(taus[lin_mask], surprisal, 1)[0])
    else:
        lin_slope = float("nan")
    return ClusterModelFit(D=d_fit, S0=s0, linear_slope=lin_slope,
                           tau_range=(float(lo), float(hi)))
