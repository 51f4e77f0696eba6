"""Return series and rolling expected-return / volatility windows.

The volatility window T is a physical duration; it must be an integer
multiple of the sampling interval (no rounding) so runs are reproducible
across configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .series import NS_PER_S, SampledSeries, whole_samples

#: window values per std call in rolling_volatility
_VOL_BLOCK = 2 ** 16


@dataclass(frozen=True)
class VolatilityWindow:
    """Rolling window: physical span in seconds plus the derived sample count."""

    physical_s: float
    samples: int

    @classmethod
    def from_physical(cls, physical_s: float, delta_ns: int) -> "VolatilityWindow":
        return cls(physical_s=physical_s,
                   samples=whole_samples(physical_s, delta_ns, "volatility window"))

    @classmethod
    def from_samples(cls, samples: int, delta_ns: int) -> "VolatilityWindow":
        if samples < 2:
            raise DataError(f"window must span >= 2 samples, got {samples}")
        return cls(physical_s=samples * delta_ns / NS_PER_S, samples=samples)


def _checked_prices(prices: SampledSeries) -> np.ndarray:
    """The values of prices, which must hold at least 2 strictly positive prices."""
    y = prices.values
    if len(y) < 2:
        raise DataError("need at least 2 prices to compute returns")
    if np.any(y <= 0):
        raise DataError("prices must be strictly positive")
    return y


def linear_returns(prices: SampledSeries) -> SampledSeries:
    """Simple returns r_t = (y_t - y_{t-1}) / y_{t-1}; length shrinks by one."""
    y = _checked_prices(prices)
    r = np.diff(y) / y[:-1]
    return SampledSeries(values=r, start_time=prices.start_time + prices.delta,
                         delta=prices.delta, kind="return")


def log_returns(prices: SampledSeries) -> SampledSeries:
    """Log returns; config alternative to linear_returns."""
    r = np.diff(np.log(_checked_prices(prices)))
    return SampledSeries(values=r, start_time=prices.start_time + prices.delta,
                         delta=prices.delta, kind="return")


def rolling_volatility(returns: SampledSeries, window: VolatilityWindow) -> SampledSeries:
    """Windowed sample standard deviation (ddof=1) over fully contained windows."""
    w = window.samples
    r = returns.values
    if w < 2:
        raise DataError("volatility window must span >= 2 samples")
    if w > len(r):
        raise DataError(f"window ({w}) longer than series ({len(r)})")
    windows = sliding_window_view(r, w)
    out = np.empty(len(windows))
    # std reduces each row on its own, so blocks of rows give the same bytes
    # as one call while its (rows x w) temporaries stay at _VOL_BLOCK values
    rows = max(1, _VOL_BLOCK // w)
    for lo in range(0, len(windows), rows):
        out[lo:lo + rows] = windows[lo:lo + rows].std(axis=-1, ddof=1)
    # a constant window must give exactly 0, not mean-roundoff noise
    out[_constant_windows(r, w)] = 0.0
    return returns.with_values(out, kind="volatility")


def _constant_windows(r: np.ndarray, w: int) -> np.ndarray:
    """Mask of the length-w windows of r whose max equals their min, in O(N).

    A window is constant when no neighbouring pair inside it differs under
    `!=`, which classifies +-0.0 (equal), inf (equal to itself) and NaN
    (unequal to everything) exactly as max == min does.
    """
    changes = np.concatenate(([0], np.cumsum(r[1:] != r[:-1])))
    return changes[w - 1:] == changes[:len(r) - w + 1]
