import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from entroport import DataError, linear_returns, log_returns, rolling_volatility
from entroport.returns_vol import _VOL_BLOCK
from entroport.series import whole_samples


def _array(values):
    return np.asarray(values, dtype=float)


class TestLinearReturns:
    def test_constant_price_gives_zero_returns(self):
        assert linear_returns(_array([1, 1, 1])).tolist() == [0.0, 0.0]

    def test_hand_arithmetic(self):
        assert linear_returns(_array([100, 110])).tolist() == [0.1]

    def test_single_price_is_an_error(self):
        with pytest.raises(DataError):
            linear_returns(_array([100]))

    def test_non_positive_price_is_an_error(self):
        with pytest.raises(DataError):
            linear_returns(_array([100, -1]))

    def test_log_variant(self):
        r = log_returns(_array([100, 110]))
        assert r == pytest.approx([np.log(1.1)])

    @pytest.mark.parametrize("values, message", [
        ([100], "need at least 2 prices to compute returns"),
        ([100, 0], "prices must be strictly positive"),
        ([100, -1], "prices must be strictly positive"),
        ([100, np.nan], "series values must be finite"),
        ([np.inf, 100], "series values must be finite"),
        ([100, -np.inf], "series values must be finite")])
    def test_both_kinds_check_prices_alike(self, values, message):
        for to_returns in (linear_returns, log_returns):
            with pytest.raises(DataError, match=f"^{message}$"):
                to_returns(_array(values))


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
        assert np.all(rolling_volatility(_array([0.3] * 8), 4) == 0.0)

    def test_two_point_window_hand_value(self):
        out = rolling_volatility(_array([1.0, 3.0]), 2)
        assert out == pytest.approx([np.sqrt(2.0)])

    def test_iid_normal_monte_carlo(self):
        # sample std of 1e4 standard normals is 1 within +/- 0.05
        rng = np.random.default_rng(42)
        r = rng.standard_normal(12_000)
        out = rolling_volatility(r, 10_000)
        assert np.all(np.abs(out - 1.0) < 0.05)

    def test_window_below_two_samples(self):
        with pytest.raises(DataError):
            rolling_volatility(_array([0.1, 0.2]), 1)

    def test_window_longer_than_series(self):
        with pytest.raises(DataError, match=r"window \(4\) longer than series \(3\)"):
            rolling_volatility(_array([0.1, 0.2, 0.3]), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_return_is_an_error(self, bad):
        # a window of equal infs is constant, which the mask alone would set to 0
        with pytest.raises(DataError, match="^series values must be finite$"):
            rolling_volatility(np.full(3, bad), 2)

    def test_output_length(self):
        rng = np.random.default_rng(7)
        for n, w in [(10, 2), (50, 13), (100, 100)]:
            out = rolling_volatility(rng.standard_normal(n), w)
            assert len(out) == n - w + 1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(200)
        for c in (-3.0, 0.5, 7.0):
            a = rolling_volatility(c * r, 20)
            b = rolling_volatility(r, 20)
            assert np.allclose(a, abs(c) * b, rtol=1e-12)

    def test_non_negative_and_zero_iff_constant(self):
        vals = np.array([0.1, 0.1, 0.1, 0.5, 0.2, 0.2])
        out = rolling_volatility(vals, 3)
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
            out = rolling_volatility(r, w)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("w", [300, 1000])
    def test_full_blocks_of_long_windows_equal_one_std_call(self, w):
        # a full block and a one-window block, each summed in the split regime
        r = np.random.default_rng(w).standard_normal(_VOL_BLOCK + w)
        expected = sliding_window_view(r, w).std(axis=-1, ddof=1)
        out = rolling_volatility(r, w)
        assert out.tobytes() == expected.tobytes()
