import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from entroport import (DataError, SampledSeries, linear_returns, log_returns,
                       rolling_volatility)
from entroport.returns_vol import _VOL_BLOCK
from entroport.series import whole_samples


def _prices(values, delta=10):
    return SampledSeries(np.asarray(values, dtype=float), start_time=0, delta=delta)


def _returns(values, delta=10):
    return SampledSeries(np.asarray(values, dtype=float), start_time=0,
                         delta=delta, kind="return")


class TestLinearReturns:
    def test_constant_price_gives_zero_returns(self):
        r = linear_returns(_prices([1, 1, 1]))
        assert r.values.tolist() == [0.0, 0.0]
        assert r.kind == "return"

    def test_hand_arithmetic(self):
        assert linear_returns(_prices([100, 110])).values.tolist() == [0.1]

    def test_single_price_is_an_error(self):
        with pytest.raises(DataError):
            linear_returns(_prices([100]))

    def test_non_positive_price_is_an_error(self):
        with pytest.raises(DataError):
            linear_returns(_prices([100, -1]))

    def test_log_variant(self):
        r = log_returns(_prices([100, 110]))
        assert r.values == pytest.approx([np.log(1.1)])

    @pytest.mark.parametrize("values, message", [
        ([100], "need at least 2 prices to compute returns"),
        ([100, 0], "prices must be strictly positive"),
        ([100, -1], "prices must be strictly positive")])
    def test_both_kinds_check_prices_alike(self, values, message):
        for to_returns in (linear_returns, log_returns):
            with pytest.raises(DataError, match=f"^{message}$"):
                to_returns(_prices(values))


class TestVolatilityWindow:
    """A physical volatility window becomes a sample count through whole_samples."""

    def test_from_physical(self):
        assert whole_samples(180, 5_000_000_000, "volatility window") == 36

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(DataError, match="not a whole number"):
            whole_samples(180, 7_000_000_000, "volatility window")

    def test_sub_two_samples_rejected(self):
        with pytest.raises(DataError, match="under 2 samples"):
            whole_samples(5, 5_000_000_000, "volatility window")


class TestRollingVolatility:
    def test_constant_returns_give_zero(self):
        out = rolling_volatility(_returns([0.3] * 8), 4)
        assert np.all(out.values == 0.0)
        assert out.kind == "volatility"

    def test_two_point_window_hand_value(self):
        out = rolling_volatility(_returns([1.0, 3.0]), 2)
        assert out.values == pytest.approx([np.sqrt(2.0)])

    def test_iid_normal_monte_carlo(self):
        # sample std of 1e4 standard normals is 1 within +/- 0.05
        rng = np.random.default_rng(42)
        r = _returns(rng.standard_normal(12_000))
        out = rolling_volatility(r, 10_000)
        assert np.all(np.abs(out.values - 1.0) < 0.05)

    def test_window_below_two_samples(self):
        with pytest.raises(DataError):
            rolling_volatility(_returns([0.1, 0.2]), 1)

    def test_window_longer_than_series(self):
        with pytest.raises(DataError, match=r"window \(4\) longer than series \(3\)"):
            rolling_volatility(_returns([0.1, 0.2, 0.3]), 4)

    def test_output_length(self):
        rng = np.random.default_rng(7)
        for n, w in [(10, 2), (50, 13), (100, 100)]:
            out = rolling_volatility(_returns(rng.standard_normal(n)), w)
            assert len(out) == n - w + 1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(200)
        for c in (-3.0, 0.5, 7.0):
            a = rolling_volatility(_returns(c * r), 20).values
            b = rolling_volatility(_returns(r), 20).values
            assert np.allclose(a, abs(c) * b, rtol=1e-12)

    def test_non_negative_and_zero_iff_constant(self):
        vals = np.array([0.1, 0.1, 0.1, 0.5, 0.2, 0.2])
        out = rolling_volatility(_returns(vals), 3).values
        assert np.all(out >= 0)
        assert out[0] == 0.0 and np.all(out[1:] > 0)

    @pytest.mark.parametrize("w", [2, 3, 12, 300, _VOL_BLOCK + 5])
    def test_row_blocks_equal_one_std_call(self, w):
        # window counts around one and two block edges; w = 300 spans more
        # samples than a block has rows, w > _VOL_BLOCK gives one-row blocks
        rows = max(1, _VOL_BLOCK // w)
        rng = np.random.default_rng(w)
        for n_windows in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1):
            if n_windows < 1:
                continue
            r = rng.standard_normal(n_windows + w - 1)
            expected = sliding_window_view(r, w).std(axis=-1, ddof=1)
            out = rolling_volatility(_returns(r), w).values
            assert out.tobytes() == expected.tobytes()
