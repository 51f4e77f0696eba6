import builtins
import functools
import operator

import numpy as np
import pytest

from entroport import (DataError, EmptyInputError, InsufficientClustersError,
                       aggregate_index, entropy_curve, entropy_index, moving_average)
from entroport import dma_cluster
from entroport.dma_cluster import (PrefixTables, _filter, _pass_histogram, _tables,
                                   crossing_pass)


def _series(values):
    return np.asarray(values, dtype=float)


def _durations(y, n):
    return np.diff(crossing_pass(PrefixTables(y), n).times)


def _histogram(durations):
    """The (taus, counts) a crossing pass builds from these durations."""
    return _pass_histogram(np.bincount(durations))


def _probabilities(counts):
    return counts / counts.sum()


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(_series([5.0] * 6), 3)
        assert np.allclose(out, 5.0)
        assert len(out) == 4

    def test_hand_arithmetic(self):
        assert moving_average(_series([1, 2, 3, 4]), 2).tolist() == [1.5, 2.5, 3.5]

    def test_full_window_is_series_mean(self):
        v = [1.0, 2.0, 4.0, 9.0]
        assert moving_average(_series(v), 4).tolist() == [np.mean(v)]

    def test_out_of_range_n(self):
        with pytest.raises(DataError):
            moving_average(_series([1, 2, 3]), 1)
        with pytest.raises(DataError):
            moving_average(_series([1, 2, 3]), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [lambda y: moving_average(y, 2), PrefixTables],
                         ids=["moving_average", "PrefixTables"])
def test_non_finite_series_is_an_error(entry, bad):
    # unchecked, a NaN would read as sign changes and give crossings
    with pytest.raises(DataError, match="^series values must be finite$"):
        entry(_series([0.0, 1.0, bad, 1.0, 0.0]))


def _convolve_pass(values, n):
    """times and previous of a pass by the previous-nonzero rule over np.convolve's signs."""
    sign = np.sign(values[n - 1:] - np.convolve(values, np.full(n, 1.0 / n), "valid"))
    nonzero = np.flatnonzero(sign)
    flip = np.flatnonzero(sign[nonzero][1:] != sign[nonzero][:-1])
    return (nonzero[flip + 1] + n - 1).tolist(), (nonzero[flip] + n - 1).tolist()


def _settled(tables, n):
    """crossing_pass(tables, n) as (times, previous) and its rule."""
    cpass = crossing_pass(tables, n)
    return (cpass.times.tolist(), cpass.previous.tolist()), cpass.rule


class TestPrefixTables:
    def test_one_sign_in_doubt_convolves_the_whole_pass(self, monkeypatch):
        values = np.random.default_rng(7).standard_normal(2 ** 14)
        assert _settled(PrefixTables(_series(values)), 8) == (_convolve_pass(values, 8),
                                                               "signs certified")
        # 1-ulp steps: no two values are equal, but d is within ulps of 0 inside them
        values[10000:10012] = values[10000] + np.spacing(values[10000]) * np.arange(12)
        tables = PrefixTables(_series(values))
        assert tables.flat_run == 1
        built = []
        monkeypatch.setattr(dma_cluster, "_tables",
                            lambda v: built.append(len(v)) or _tables(v))
        assert _settled(tables, 8) == (_convolve_pass(values, 8),
                                       "full convolve (signs in doubt)")
        assert built == [len(values)]  # certification was tried

    def test_passes_within_the_flat_run_never_build_the_tables(self, monkeypatch):
        built = []
        monkeypatch.setattr(dma_cluster, "_tables",
                            lambda v: built.append(len(v)) or _tables(v))
        values = np.repeat(np.random.default_rng(7).standard_normal(400), 40)
        tables = PrefixTables(_series(values))
        assert tables.flat_run == 40
        for n in (5, 9, 40):
            assert _settled(tables, n) == (_convolve_pass(values, n),
                                           "full convolve (flat run 40 >= n)")
        assert built == [] and vars(tables).keys() == {"series", "flat_run"}
        for n in (41, 41, 64):
            assert _settled(tables, n)[0] == _convolve_pass(values, n)
        assert built == [len(values)]  # once, by the first pass past the flat run
        assert vars(tables).keys() == {"series", "flat_run", "tables"}

    def test_out_of_range_n(self):
        tables = PrefixTables(_series([1, 2, 3]))
        for n in (1, 0, -2):
            with pytest.raises(DataError, match=f"window n={n} out of range"):
                crossing_pass(tables, n)
        assert _settled(tables, 4) == (([], []), "no pass")


class TestCrossingPass:
    def test_certifies_only_above_the_full_bound(self):
        # a random walk has no flat run; one sample reset puts its deviation at
        # about 0.75 bound, so a pass certifying above half the bound would take it
        values = np.cumsum(np.random.default_rng(3).standard_normal(4096))
        n, i = 10, 2000
        tables = PrefixTables(_series(values))
        bound = _filter(tables.tables, values, n)[1]
        window = values[i - n + 1:i]  # the other n - 1 samples of the window ending at i
        values[i] = (window.sum() / n + 0.75 * bound) / (1 - 1 / n)
        tables = PrefixTables(_series(values))
        assert tables.flat_run == 1
        d, bound = _filter(tables.tables, values, n)
        assert bound / 2 < np.abs(d).min() < bound
        assert _settled(tables, n) == (_convolve_pass(values, n),
                                       "full convolve (signs in doubt)")

    def test_one_crossing_gives_zero_clusters(self):
        # one crossing in the span: no duration to histogram, so the gate stops it
        cpass = crossing_pass(PrefixTables(_series([0.0, 1.0, 0.0])), 2)
        assert cpass.times.tolist() == [2]
        dist, = cpass.distributions([(0, 3)], min_clusters=1)
        assert isinstance(dist, InsufficientClustersError)
        assert str(dist) == "0 clusters at n=2, need >= 1"

    def test_window_longer_than_the_series_gives_no_pass(self):
        # a pass exists for every n >= 2; past the series it finds every span too short
        cpass = crossing_pass(PrefixTables(_series([0.0, 1.0, 0.0, 1.0, 0.0])), 9)
        assert (cpass.rule, cpass.times.tolist(), cpass.previous.tolist()) == ("no pass", [], [])
        dists = cpass.distributions([(0, 5), (1, 3)], min_clusters=1)
        assert [str(d) for d in dists] == ["window n=9 out of range for series of length 5",
                                           "window n=9 out of range for series of length 2"]
        assert all(type(d) is DataError for d in dists)

    @pytest.mark.parametrize("values, rule", [
        (np.random.default_rng(7).standard_normal(64), "signs certified"),
        (np.repeat([0.0, 1.0], 32), "full convolve (flat run 32 >= n)"),
    ])
    def test_rule_names_how_the_signs_were_settled(self, values, rule):
        assert crossing_pass(PrefixTables(_series(values)), 8).rule == rule


class TestExtractClusters:
    """Cluster durations: the diffs of a crossing pass's times."""

    def test_monotone_series_never_crosses(self):
        assert len(_durations(_series(np.arange(100.0)), 5)) == 0

    def test_alternating_series_all_unit_durations(self):
        y = _series([0, 1, 0, 1, 0, 1])
        assert _durations(y, 2).tolist() == [1, 1, 1]

    def test_constant_series_no_crossings(self):
        assert len(_durations(_series([2.0] * 50), 4)) == 0

    def test_window_near_length_gives_at_most_one_cluster(self):
        rng = np.random.default_rng(3)
        y = _series(np.cumsum(rng.standard_normal(64)))
        assert len(_durations(y, 63)) <= 1

    def test_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = _series(np.cumsum(rng.standard_normal(2000)))
            cpass = crossing_pass(PrefixTables(y), 20)
            (taus, counts), = cpass.distributions([(0, len(y))], min_clusters=1)
            t = cpass.times
            if len(t) >= 2:
                assert counts.sum() == len(t) - 1
                assert counts @ taus == t[-1] - t[0]

    def test_determinism(self):
        y = _series(np.cumsum(np.random.default_rng(9).standard_normal(500)))
        assert np.array_equal(_durations(y, 10), _durations(y, 10))


class TestClusterDistribution:
    def test_counting(self):
        taus, counts = _histogram([1, 1, 2])
        assert taus.tolist() == [1, 2]
        assert _probabilities(counts).tolist() == [2 / 3, 1 / 3]

    def test_single_value_single_bin(self):
        taus, counts = _histogram([3] * 60)
        assert taus.tolist() == [3]
        assert _probabilities(counts).tolist() == [1.0]

    def test_empty_durations(self):
        dist, = crossing_pass(PrefixTables(_series(np.arange(100.0))), 5).distributions(
            [(0, 100)], min_clusters=1)
        assert isinstance(dist, InsufficientClustersError)

    def _alternating(self, n_durations, min_clusters):
        """The distribution of n_durations unit clusters, gated at min_clusters."""
        y = _series(np.arange(n_durations + 3) % 2)
        dist, = crossing_pass(PrefixTables(y), 2).distributions([(0, len(y))], min_clusters)
        return dist

    def test_min_clusters_gate(self):
        dist = self._alternating(49, min_clusters=50)
        assert isinstance(dist, InsufficientClustersError)
        assert str(dist) == "49 clusters at n=2, need >= 50"

    def test_min_clusters_is_inclusive(self):
        taus, counts = self._alternating(50, min_clusters=50)
        assert taus.tolist() == [1] and counts.tolist() == [50]

    def test_normalization(self):
        y = _series(np.cumsum(np.random.default_rng(1).standard_normal(5000)))
        (taus, counts), = crossing_pass(PrefixTables(y), 8).distributions([(0, len(y))])
        assert len(taus) > 1
        assert abs(_probabilities(counts).sum() - 1.0) < 1e-12


class TestEntropyCurve:
    def test_single_bin_is_zero(self):
        taus, counts = _histogram([4] * 60)
        assert taus.tolist() == [4] and entropy_curve(counts).tolist() == [0.0]

    def test_uniform_bins_give_log_k(self):
        curve = entropy_curve(_histogram(np.repeat(np.arange(1, 7), 10))[1])
        assert all(s == pytest.approx(np.log(6)) for s in curve)

    def test_model_distribution_matches_surprisal_form(self):
        # P ~ tau^-1.5 exp(-tau/5) on 1..10: S must equal C + 1.5 ln tau + tau/5
        # with C the numerically computed log normalization
        taus = np.arange(1, 11)
        weights = taus ** -1.5 * np.exp(-taus / 5.0)
        c = np.log(weights.sum())
        curve = entropy_curve(weights)  # a model distribution's fractional counts
        for t, s in zip(taus, curve):
            expected = c + 1.5 * np.log(t) + t / 5.0
            assert s == pytest.approx(expected, rel=1e-12)

    def test_exponential_tail_has_linear_slope_one_over_n(self):
        # P ~ exp(-tau/n): the surprisal slope, fitted over tau in (2n, 5n] as
        # criterion 3 fits it, is exactly 1/n
        n = 10
        taus = np.arange(1, 6 * n)
        curve = entropy_curve(np.exp(-taus / n))
        tail = (taus > 2 * n) & (taus <= 5 * n)
        slope = np.polyfit(taus[tail].astype(float), curve[tail], 1)[0]
        assert slope == pytest.approx(1.0 / n, rel=1e-6)


class TestEntropyIndex:
    def test_single_zero_bin(self):
        assert entropy_index(entropy_curve(_histogram([2] * 60)[1])) == 0.0

    def test_two_uniform_bins_split(self):
        i_n = entropy_index(entropy_curve(_histogram([2] * 5 + [6] * 5)[1]))
        assert i_n == pytest.approx(2 * np.log(2))

    def test_model_curve_matches_brute_force_sum(self):
        taus = np.arange(1, 11)
        curve = entropy_curve(taus ** -1.5 * np.exp(-taus / 5.0))
        i_n = entropy_index(curve)
        # independent summation oracle over the curve points
        brute = sum(curve.tolist())
        assert i_n == pytest.approx(brute, rel=1e-14)

    def test_empty_curve(self):
        with pytest.raises(EmptyInputError, match="no points"):
            entropy_index(np.zeros(0))


def _neumaier_sum(values, start=0):
    """builtin sum over floats as Python 3.12 and later add them: compensated."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_index_sums_add_left_to_right_whatever_builtin_sum_does(monkeypatch):
    def in_order(values):
        return functools.reduce(operator.add, values, 0.0)

    values = [1.0] + [1e-16] * 10
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    assert sum(values) == 1.000000000000001 != in_order(values) == 1.0
    value = entropy_index(np.array(values))
    total = aggregate_index(values)
    monkeypatch.undo()
    assert value == total == 1.0


class TestAggregateIndex:
    def test_single_grid_point_identity(self):
        assert aggregate_index([2.5]) == 2.5

    def test_equal_values_sum(self):
        ixs = [1.5, 1.5, 1.5]
        assert aggregate_index(ixs) == pytest.approx(4.5)
        assert aggregate_index(ixs, how="mean") == pytest.approx(1.5)

    def test_empty_grid(self):
        with pytest.raises(EmptyInputError):
            aggregate_index([])

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            aggregate_index([2.5], how="median")
