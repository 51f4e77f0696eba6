import numpy as np
import pytest

from entroport import (ClusterDistribution, DataError, EmptyInputError, EntropyCurve,
                       InsufficientClustersError, SampledSeries, aggregate_index, cluster_distribution,
                       entropy_curve, entropy_index, extract_clusters,
                       fit_cluster_model, moving_average)
from entroport import dma_cluster
from entroport.dma_cluster import PrefixTables, _tables, crossing_pass, crossing_times


def _series(values, delta=1):
    return SampledSeries(np.asarray(values, dtype=float), start_time=0, delta=delta)


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(_series([5.0] * 6), 3)
        assert np.allclose(out.values, 5.0)
        assert len(out) == 4

    def test_hand_arithmetic(self):
        out = moving_average(_series([1, 2, 3, 4]), 2)
        assert out.values.tolist() == [1.5, 2.5, 3.5]
        assert out.start_time == 1

    def test_full_window_is_series_mean(self):
        v = [1.0, 2.0, 4.0, 9.0]
        out = moving_average(_series(v), 4)
        assert out.values.tolist() == [np.mean(v)]

    def test_out_of_range_n(self):
        with pytest.raises(DataError):
            moving_average(_series([1, 2, 3]), 1)
        with pytest.raises(DataError):
            moving_average(_series([1, 2, 3]), 4)


def _convolve_signs(values, n):
    return np.sign(values[n - 1:] - np.convolve(values, np.full(n, 1.0 / n), "valid"))


class TestPrefixTables:
    def test_one_sign_in_doubt_convolves_the_whole_pass(self, monkeypatch):
        values = np.random.default_rng(7).standard_normal(2 ** 14)
        d, certified = PrefixTables(_series(values)).deviations(8)
        assert certified and np.array_equal(np.sign(d), _convolve_signs(values, 8))
        # 1-ulp steps: no two values are equal, but d is within ulps of 0 inside them
        values[10000:10012] = values[10000] + np.spacing(values[10000]) * np.arange(12)
        tables = PrefixTables(_series(values))
        assert tables.flat_run == 1
        built = []
        monkeypatch.setattr(dma_cluster, "_tables",
                            lambda v: built.append(len(v)) or _tables(v))
        d, certified = tables.deviations(8)
        assert not certified and built == [len(values)]  # certification was tried
        assert np.array_equal(np.sign(d), _convolve_signs(values, 8))

    def test_passes_within_the_flat_run_never_build_the_tables(self, monkeypatch):
        built = []
        monkeypatch.setattr(dma_cluster, "_tables",
                            lambda v: built.append(len(v)) or _tables(v))
        values = np.repeat(np.random.default_rng(7).standard_normal(400), 40)
        tables = PrefixTables(_series(values))
        assert tables.flat_run == 40
        for n in (5, 9, 40):
            d, certified = tables.deviations(n)
            assert not certified and np.array_equal(np.sign(d), _convolve_signs(values, n))
        assert built == [] and vars(tables).keys() == {"series", "flat_run"}
        assert not crossing_pass(tables, 5).certified
        for n in (41, 41, 64):
            d, certified = tables.deviations(n)
            assert np.array_equal(np.sign(d), _convolve_signs(values, n))
        assert built == [len(values)]  # once, by the first pass past the flat run
        assert vars(tables).keys() == {"series", "flat_run", "tables"}

    def test_volatility_series_shares_prefix_as_abs_prefix(self):
        assert _tables(np.array([0.0, 1.0, 2.0]))[1] is None
        assert _tables(np.array([0.0, -1.0, 2.0]))[1].tolist() == [0, 0, 1, 3]

    def test_out_of_range_n(self):
        tables = PrefixTables(_series([1, 2, 3]))
        for n in (1, 4):
            with pytest.raises(DataError):
                tables.deviations(n)


class TestCrossingPass:
    def test_no_durations_with_min_clusters_zero_is_empty_input(self):
        # one crossing in the span: no duration to histogram, and no gate to stop it
        cpass = crossing_pass(PrefixTables(_series([0.0, 1.0, 0.0])), 2)
        assert cpass.times.tolist() == [2]
        with pytest.raises(EmptyInputError, match="at least one duration bin"):
            cpass.distributions([(0, 3)], min_clusters=0)


class TestExtractClusters:
    def test_monotone_series_never_crosses(self):
        assert len(extract_clusters(_series(np.arange(100.0)), 5)) == 0

    def test_alternating_series_all_unit_durations(self):
        y = _series([0, 1, 0, 1, 0, 1])
        assert extract_clusters(y, 2).tolist() == [1, 1, 1]

    def test_constant_series_no_crossings(self):
        assert len(extract_clusters(_series([2.0] * 50), 4)) == 0

    def test_window_near_length_gives_at_most_one_cluster(self):
        rng = np.random.default_rng(3)
        y = _series(np.cumsum(rng.standard_normal(64)))
        assert len(extract_clusters(y, 63)) <= 1

    def test_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = _series(np.cumsum(rng.standard_normal(2000)))
            t = crossing_times(y, 20)
            tau = extract_clusters(y, 20)
            if len(t) >= 2:
                assert tau.sum() == t[-1] - t[0]

    def test_determinism(self):
        y = _series(np.cumsum(np.random.default_rng(9).standard_normal(500)))
        a = extract_clusters(y, 10)
        b = extract_clusters(y, 10)
        assert np.array_equal(a, b)


class TestClusterDistribution:
    def test_counting(self):
        dist = cluster_distribution([1, 1, 2], 4, min_clusters=1)
        assert dist.taus.tolist() == [1, 2]
        assert dist.probabilities.tolist() == [2 / 3, 1 / 3]

    def test_single_value_single_bin(self):
        dist = cluster_distribution([3] * 60, 4)
        assert dist.taus.tolist() == [3]
        assert dist.probabilities.tolist() == [1.0]

    def test_empty_durations(self):
        with pytest.raises(InsufficientClustersError):
            cluster_distribution([], 4, min_clusters=1)

    def test_min_clusters_gate(self):
        with pytest.raises(InsufficientClustersError):
            cluster_distribution([1] * 49, 4, min_clusters=50)

    def test_min_clusters_is_inclusive(self):
        assert cluster_distribution([1] * 50, 4, min_clusters=50).counts.tolist() == [50.0]

    def test_normalization(self):
        rng = np.random.default_rng(1)
        durations = rng.integers(1, 30, size=500)
        dist = cluster_distribution(durations, 8)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_rejects_malformed_bins(self):
        for taus, counts in (([2, 1], [1, 1]), ([1, 1], [1, 1]), ([0, 1], [1, 1]),
                             ([1, 2], [1, 0]), ([1, 2], [1])):
            with pytest.raises(DataError):
                ClusterDistribution(n=4, taus=taus, counts=counts)
        with pytest.raises(EmptyInputError):
            ClusterDistribution(n=4, taus=[], counts=[])


class TestEntropyCurve:
    def test_single_bin_is_zero(self):
        dist = cluster_distribution([4] * 60, 5)
        curve = entropy_curve(dist)
        assert curve.taus.tolist() == [4] and curve.values.tolist() == [0.0]

    def test_uniform_bins_give_log_k(self):
        dist = ClusterDistribution(n=5, taus=np.arange(1, 7), counts=np.full(6, 10))
        curve = entropy_curve(dist)
        assert all(s == pytest.approx(np.log(6)) for s in curve.values)

    def test_model_distribution_matches_surprisal_form(self):
        # P ~ tau^-1.5 exp(-tau/5) on 1..10: S must equal C + 1.5 ln tau + tau/5
        # with C the numerically computed log normalization
        taus = np.arange(1, 11)
        weights = taus ** -1.5 * np.exp(-taus / 5.0)
        c = np.log(weights.sum())
        dist = ClusterDistribution(n=5, taus=taus, counts=weights)
        curve = entropy_curve(dist)
        for t, s in zip(taus, curve.values):
            expected = c + 1.5 * np.log(t) + t / 5.0
            assert s == pytest.approx(expected, rel=1e-12)

    def test_shannon_term_estimator(self):
        dist = ClusterDistribution(n=5, taus=[1, 2], counts=[3, 1])
        curve = entropy_curve(dist, estimator="shannon_term")
        assert curve.values[0] == pytest.approx(-0.75 * np.log(0.75))
        assert curve.values[1] == pytest.approx(-0.25 * np.log(0.25))

    def test_unknown_estimator(self):
        dist = ClusterDistribution(n=5, taus=[1], counts=[3])
        with pytest.raises(ValueError):
            entropy_curve(dist, estimator="bogus")

    def test_negative_values_rejected(self):
        with pytest.raises(DataError, match="must be non-negative"):
            EntropyCurve(n=5, taus=np.array([1, 2]), values=np.array([0.5, -0.1]))


class TestEntropyIndex:
    def test_single_zero_bin(self):
        dist = cluster_distribution([2] * 60, 5)
        ix = entropy_index(entropy_curve(dist), 5)
        assert ix.value == 0.0

    def test_two_uniform_bins_split(self):
        dist = ClusterDistribution(n=4, taus=[2, 6], counts=[5, 5])
        ix = entropy_index(entropy_curve(dist), 4)
        assert ix.power_law_part == pytest.approx(np.log(2))
        assert ix.linear_part == pytest.approx(np.log(2))
        assert ix.value == pytest.approx(2 * np.log(2))

    def test_threshold_bin_counted_once_in_power_part(self):
        dist = ClusterDistribution(n=4, taus=[3, 4, 5], counts=[5, 5, 5])
        ix = entropy_index(entropy_curve(dist), 4)
        assert ix.power_law_part == pytest.approx(2 * np.log(3))
        assert ix.linear_part == pytest.approx(np.log(3))
        assert ix.value == pytest.approx(ix.power_law_part + ix.linear_part)

    def test_model_curve_matches_brute_force_sum(self):
        taus = np.arange(1, 11)
        weights = taus ** -1.5 * np.exp(-taus / 5.0)
        dist = ClusterDistribution(n=5, taus=taus, counts=weights)
        curve = entropy_curve(dist)
        ix = entropy_index(curve, 5)
        # independent summation oracle over the curve points
        brute = sum(curve.values.tolist())
        assert ix.value == pytest.approx(brute, rel=1e-14)

    def test_bad_threshold(self):
        dist = ClusterDistribution(n=4, taus=[1], counts=[5])
        with pytest.raises(DataError):
            entropy_index(entropy_curve(dist), 0)

    def test_empty_curve(self):
        empty = EntropyCurve(n=4, taus=np.zeros(0, dtype=np.int64), values=np.zeros(0))
        with pytest.raises(EmptyInputError, match="no points"):
            entropy_index(empty, 4)


class TestAggregateIndex:
    def _index(self, n, v):
        from entroport import EntropyIndex
        return EntropyIndex(n=n, threshold=n, value=v, power_law_part=v,
                            linear_part=0.0)

    def test_single_grid_point_identity(self):
        assert aggregate_index([self._index(4, 2.5)]) == 2.5

    def test_equal_values_sum(self):
        ixs = [self._index(n, 1.5) for n in (4, 8, 12)]
        assert aggregate_index(ixs) == pytest.approx(4.5)
        assert aggregate_index(ixs, how="mean") == pytest.approx(1.5)

    def test_empty_grid(self):
        with pytest.raises(EmptyInputError):
            aggregate_index([])

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            aggregate_index([self._index(4, 2.5)], how="median")


class TestFitClusterModel:
    def test_exact_power_law(self):
        taus = np.arange(1, 51)
        dist = ClusterDistribution(n=100, taus=taus, counts=taus ** -1.5)
        fit = fit_cluster_model(dist, (1, 50))
        assert fit.D == pytest.approx(1.5, abs=0.01)

    def test_linear_slope_on_exact_model(self):
        # P ~ exp(-tau/n) past the cutoff: surprisal slope is exactly 1/n
        n = 10
        taus = np.arange(1, 6 * n)
        dist = ClusterDistribution(n=n, taus=taus, counts=np.exp(-taus / n))
        fit = fit_cluster_model(dist, (1, n))
        assert fit.linear_slope == pytest.approx(1.0 / n, rel=1e-6)

    def test_too_few_bins(self):
        dist = ClusterDistribution(n=100, taus=[1, 2], counts=[5, 5])
        with pytest.raises(DataError):
            fit_cluster_model(dist, (1, 50))
