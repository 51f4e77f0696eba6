"""Return series and rolling volatility over windows of w samples.

A window's physical span T becomes w only in series.whole_samples, which
rejects a T that is not a whole number of sampling intervals (no rounding).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .series import SampledSeries

#: windows per block in rolling_volatility, whatever their length: a block's
#: temporaries are about ten arrays of _VOL_BLOCK floats
_VOL_BLOCK = 2 ** 13


def _checked_prices(prices: SampledSeries) -> np.ndarray:
    """The values of prices, which must hold at least 2 strictly positive prices."""
    y = prices.values
    if len(y) < 2:
        raise DataError("need at least 2 prices to compute returns")
    if np.any(y <= 0):
        raise DataError("prices must be strictly positive")
    return y


def linear_returns(prices: SampledSeries) -> SampledSeries:
    """Simple returns r_t = (y_t - y_{t-1}) / y_{t-1}; length shrinks by one.

    A return that overflows float64 (a price near 0 before a larger one) is a DataError.
    """
    y = _checked_prices(prices)
    with np.errstate(over="ignore"):  # reported below, not warned
        r = np.diff(y) / y[:-1]
    if not np.isfinite(r).all():
        raise DataError("a simple return overflows float64")
    return SampledSeries(values=r, start_time=prices.start_time + prices.delta,
                         delta=prices.delta, kind="return")


def log_returns(prices: SampledSeries) -> SampledSeries:
    """Log returns; config alternative to linear_returns."""
    r = np.diff(np.log(_checked_prices(prices)))
    return SampledSeries(values=r, start_time=prices.start_time + prices.delta,
                         delta=prices.delta, kind="return")


def rolling_volatility(returns: SampledSeries, w: int) -> SampledSeries:
    """Sample standard deviation (ddof=1) of each fully contained window of w returns.

    Each window's std is formed as np.std forms it, with both of its sums
    added in numpy's pairwise order, so the bytes equal
    sliding_window_view(r, w).std(axis=-1, ddof=1). The sums run over the w
    shifted columns of a block of _VOL_BLOCK windows: O(len * w) work in
    about 4 * w numpy calls per block, however few windows it holds. A
    volatility that overflows float64 is a DataError.
    """
    r = returns.values
    if w < 2:
        raise DataError("volatility window must span >= 2 samples")
    if w > len(r):
        raise DataError(f"window ({w}) longer than series ({len(r)})")
    out = np.empty(len(r) - w + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        for lo in range(0, len(out), _VOL_BLOCK):
            # numpy's _var steps: mean = sum / w, sum of (x - mean)**2 over w - 1, sqrt
            block = out[lo:lo + _VOL_BLOCK]
            rows = len(block)
            seg = r[lo:lo + rows + w - 1]
            mean = _pairwise_sum(lambda k: seg[k:k + rows], w)
            mean /= w
            scratch = np.empty(rows)
            total = _pairwise_sum(lambda k: np.square(
                np.subtract(seg[k:k + rows], mean, out=scratch), out=scratch), w)
            total /= w - 1
            np.sqrt(total, out=block)
    # a constant window must give exactly 0, not mean-roundoff noise
    out[_constant_windows(r, w)] = 0.0
    if not np.isfinite(out).all():
        raise DataError(f"the volatility of a {w}-sample window overflows float64")
    return returns.with_values(out, kind="volatility")


def _pairwise_sum(term, n: int, lo: int = 0) -> np.ndarray:
    """term(lo) + ... + term(lo + n - 1) as a new array, added in the order of
    numpy's pairwise_sum over n values (numpy/_core/src/umath/loops_utils.h.src).

    term(k) returns an array to read, which the next call may overwrite, so a
    term kept as an accumulator is copied. Under 8 terms the sum is sequential.
    Up to 128 it runs 8 strided accumulators, adds them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the remaining terms in
    order. Above 128 it splits at n/2 rounded down to a multiple of 8 and adds
    the two halves' sums.
    """
    if n < 8:
        total = term(lo).copy()
        for k in range(lo + 1, lo + n):
            total += term(k)
        return total
    if n <= 128:
        r = [term(k).copy() for k in range(lo, lo + 8)]
        tail = lo + n - n % 8
        for k in range(lo + 8, tail):
            r[(k - lo) % 8] += term(k)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(tail, lo + n):
            total += term(k)
        return total
    half = n // 2 - n // 2 % 8
    total = _pairwise_sum(term, half, lo)
    total += _pairwise_sum(term, n - half, lo + half)
    return total


def _constant_windows(r: np.ndarray, w: int) -> np.ndarray:
    """Mask of the length-w windows of r whose max equals their min, in O(N).

    A window is constant when no neighbouring pair inside it differs under
    `!=`, which classifies +-0.0 (equal), inf (equal to itself) and NaN
    (unequal to everything) exactly as max == min does.
    """
    changes = np.concatenate(([0], np.cumsum(r[1:] != r[:-1])))
    return changes[w - 1:] == changes[:len(r) - w + 1]
