import hashlib
import logging

import numpy as np
import pytest

from entroport import (DataError, NoTangencyError, cluster_entropy_weights,
                       kl_cross_entropy, max_sharpe_weights, naive_weights,
                       weight_entropy)
from entroport.portfolio import _sharpe, _simplex, simplex_grid


def _wv(weights):
    return _simplex(np.asarray(weights, dtype=float))


class TestPortfolioMoments:
    def test_mean_dimension_mismatch(self):
        with pytest.raises(DataError):
            max_sharpe_weights([0.1] * 4, np.eye(5))

    def test_asymmetric_sigma_rejected(self):
        sigma = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(DataError):
            max_sharpe_weights([0.1, 0.1], sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu_rejected(self, bad):
        with pytest.raises(DataError, match="mu must be finite"):
            max_sharpe_weights([bad, 0.1], np.eye(2))

    def test_nan_sigma_rejected_as_non_finite(self):
        # not as asymmetric: NaN != NaN fails the symmetry check too
        with pytest.raises(DataError, match="sigma must be finite"):
            max_sharpe_weights([0.1, 0.1], [[1.0, np.nan], [np.nan, 1.0]])

    def test_sharpe_zero_mean(self):
        assert _sharpe(np.array([0.5, 0.5]), np.zeros(2), np.eye(2)) == 0.0

    def test_sharpe_hand_value(self):
        sigma = np.diag([0.04, 1.0])
        assert _sharpe(np.array([1.0, 0.0]), np.array([0.1, 0.0]), sigma) == pytest.approx(0.5)

    def test_sharpe_zero_variance_is_minus_inf(self):
        sigma = np.diag([0.0, 1.0])
        assert _sharpe(np.array([1.0, 0.0]), np.array([0.1, 0.0]), sigma) == -np.inf


def _solver_problems(n, count=40):
    """Seeded max-Sharpe problems over six decades of scale. Every 8th from the
    second has a rank-deficient covariance (the ridge path), every 10th only
    non-positive expected returns (NoTangencyError)."""
    rng = np.random.default_rng(1000 + n)
    for k in range(count):
        scale = 10.0 ** rng.uniform(-6, 0)
        mu = rng.normal(0.02, 0.05, n) * np.sqrt(scale)
        a = rng.normal(size=(n, n - 1 if k % 8 == 1 else n + k % 3))
        if k % 10 == 0:
            mu = -np.abs(mu)
            mu[k % n] = 0.0
        yield mu, a @ a.T * scale


class TestMaxSharpe:
    def test_single_asset(self):
        assert max_sharpe_weights([0.1], [[0.04]]).tolist() == [1.0]

    def test_symmetric_two_assets(self):
        w = max_sharpe_weights([0.1, 0.1], np.diag([0.04, 0.04]))
        assert np.allclose(w, [0.5, 0.5], atol=1e-6)

    def test_beats_simplex_grid(self):
        grid = list(simplex_grid(3, 100))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mu = rng.normal(0.05, 0.05, 3)
            a = rng.normal(size=(3, 3))
            sigma = a @ a.T * 0.01
            if np.all(mu <= 0):
                continue
            w = max_sharpe_weights(mu, sigma)
            best_grid = max(_sharpe(g, mu, sigma) for g in grid)
            assert _sharpe(w, mu, sigma) >= best_grid - 1e-3

    def test_never_below_vertices_or_uniform(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(2, 6))
            mu = rng.normal(0.02, 0.05, n)
            a = rng.normal(size=(n, n))
            sigma = a @ a.T * 0.01
            if np.all(mu <= 0):
                continue
            s = _sharpe(max_sharpe_weights(mu, sigma), mu, sigma)
            refs = [np.eye(n)[i] for i in range(n)] + [np.full(n, 1 / n)]
            assert all(s >= _sharpe(r, mu, sigma) - 1e-12 for r in refs)

    def test_all_negative_mu_raises(self):
        with pytest.raises(NoTangencyError):
            max_sharpe_weights([-0.1, -0.2], np.eye(2))

    def test_zero_covariance_raises(self):
        # no start has positive variance, so no start has a finite Sharpe ratio
        with pytest.raises(NoTangencyError, match="positive variance"):
            max_sharpe_weights([1.0, 0.5], np.zeros((2, 2)))

    def test_singular_sigma_gets_ridge(self):
        # duplicated asset: rank-1 covariance
        sigma = np.array([[0.04, 0.04], [0.04, 0.04]])
        assert max_sharpe_weights([0.1, 0.1], sigma).sum() == pytest.approx(1.0)

    # sha256 over 40 problems' weight bytes (or exception names), recorded
    # before the ascent moved to Python floats (numpy 2.4, x86-64)
    @pytest.mark.parametrize("n, digest", [
        (2, "5f2573455182862c2c55791bf95cfb72baac096296ddf125588b1d8547cb6db0"),
        (3, "3ef97873c9cfa7978d5c7638680412cfb6f4709fdfe2e677fbacd409818b2104"),
        (4, "ae45b665139fa6facafb467c7b06396db72fa244fbcf74862d5fafbf5e4c9922"),
        (5, "ca1a30feee2f18f1d3f67928abf9daca1f116d05e528b5f0580a132a0146d7b0"),
        (6, "a96450b7f9d38bc16e4fe8aa5725da8c230026cb228dbdf0869ba88ab428b900"),
    ])
    def test_weights_are_pinned(self, n, digest):
        h = hashlib.sha256()
        for mu, sigma in _solver_problems(n):
            try:
                h.update(max_sharpe_weights(mu, sigma).tobytes())
            except NoTangencyError as exc:
                h.update(type(exc).__name__.encode())
        assert h.hexdigest() == digest

    def test_debug_line_names_the_capped_start(self, caplog):
        # problem 18 of the n = 6 set: three starts run to the step cap
        mu, sigma = list(_solver_problems(6))[18]
        quiet = max_sharpe_weights(mu, sigma)
        with caplog.at_level(logging.DEBUG, logger="entroport.portfolio"):
            loud = max_sharpe_weights(mu, sigma)
        assert loud.tobytes() == quiet.tobytes()
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert "uniform=500 vertex=500 tangency=3 grid=500; best start tangency" in line
        assert line.endswith("unconverged, stopped at the 500-step cap: uniform,vertex,grid")

    def test_debug_line_says_when_every_start_converged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="entroport.portfolio"):
            max_sharpe_weights([0.1, 0.05], np.diag([0.04, 0.01]))
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert line.startswith("max_sharpe: ascent steps uniform=")
        assert line.endswith("every start converged")

    def test_no_debug_line_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="entroport.portfolio"):
            max_sharpe_weights([0.1, 0.05], np.diag([0.04, 0.01]))
        assert not caplog.records


class TestClusterEntropyWeights:
    def test_high_risk_normalization(self):
        assert np.allclose(cluster_entropy_weights([2, 3, 5]), [0.2, 0.3, 0.5])

    def test_equal_indices_uniform(self):
        assert np.allclose(cluster_entropy_weights([4.2] * 5), 0.2)

    def test_low_risk_inverse_normalization(self):
        w = cluster_entropy_weights(1.0 / np.array([2, 3, 5]))
        assert np.allclose(w, [15 / 31, 10 / 31, 6 / 31])

    def test_scale_invariance(self):
        base = cluster_entropy_weights([2, 3, 5])
        scaled = cluster_entropy_weights([2e7, 3e7, 5e7])
        assert np.array_equal(base, scaled)

    def test_non_positive_index_rejected(self):
        with pytest.raises(DataError):
            cluster_entropy_weights([2, 0, 5])

    @pytest.mark.parametrize("indices", [[np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0]])
    def test_non_finite_index_rejected(self, indices):
        with pytest.raises(DataError, match="finite"):
            cluster_entropy_weights(indices)

    def test_needs_two_assets(self):
        with pytest.raises(DataError):
            cluster_entropy_weights([2.0])


class TestWeightEntropy:
    def test_uniform_is_log_n(self):
        assert weight_entropy(naive_weights(5)) == pytest.approx(
            np.log(5), abs=1e-12)

    def test_degenerate_is_zero(self):
        assert weight_entropy(_wv([1, 0, 0])) == 0.0

    def test_half_half(self):
        assert weight_entropy(_wv([0.5, 0.5])) == pytest.approx(np.log(2))

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(17)
        n = 5
        pts = rng.dirichlet(np.ones(n), size=10_000)
        ents = -np.sum(np.where(pts > 0, pts * np.log(np.where(pts > 0, pts, 1)),
                                0.0), axis=1)
        assert np.all(ents <= np.log(n) + 1e-12)


class TestKLCrossEntropy:
    def test_identical_is_zero(self):
        w = _wv([0.3, 0.7])
        assert kl_cross_entropy(w, w) == 0.0

    def test_degenerate_vs_uniform(self):
        w = _wv([1, 0, 0, 0, 0])
        u = naive_weights(5)
        assert kl_cross_entropy(w, u) == pytest.approx(-np.log(5))

    def test_support_violation(self):
        with pytest.raises(DataError):
            kl_cross_entropy(_wv([0.5, 0.5]), _wv([1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            kl_cross_entropy(_wv([0.5, 0.5]), naive_weights(3))

    def test_non_positive_otherwise(self):
        rng = np.random.default_rng(23)
        u = naive_weights(4)
        for _ in range(200):
            w = _wv(rng.dirichlet(np.ones(4)))
            assert kl_cross_entropy(w, u) <= 1e-12


class TestWeightVector:
    """_simplex: the checks every max-Sharpe and cluster-entropy weight vector passes."""

    def test_simplex_invariants_enforced(self):
        with pytest.raises(DataError, match=r"weights sum to 1\.2, not 1"):
            _wv([0.6, 0.6])
        with pytest.raises(DataError, match="negative weight"):
            _wv([1.2, -0.2])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0],
                                         [-np.inf, 1.0]])
    def test_non_finite_weights_rejected(self, weights):
        # NaN fails both simplex comparisons, so only a finiteness check sees it
        with pytest.raises(DataError, match="non-finite weight"):
            _wv(weights)
