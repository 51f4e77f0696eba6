"""Property tests for the histogram, crossing, tick, volatility and simplex invariants
the pipeline relies on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from entroport import (SampledSeries, WeightVector, cluster_distribution, entropy_curve,
                       entropy_index, extract_clusters, parse_ticks, resample,
                       weight_entropy)
from entroport.dma_cluster import crossing_pass
from entroport.portfolio import _grid_start, _project_simplex, _sharpe
from entroport.returns_vol import _constant_windows

durations = st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=300)


@settings(deadline=None)
@given(durations)
def test_cluster_distribution_conserves_clusters_and_duration(taus_in):
    d = np.array(taus_in)
    dist = cluster_distribution(d, 10, min_clusters=1)
    assert dist.counts.sum() == len(d)
    assert (dist.taus * dist.counts).sum() == d.sum()
    assert np.all(np.diff(dist.taus) > 0)


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


# runs of small integers: flat stretches give exact-zero deviations from the mean
runs = st.lists(st.tuples(st.integers(min_value=-2, max_value=2),
                          st.integers(min_value=1, max_value=5)),
                min_size=3, max_size=30)


@settings(deadline=None)
@pytest.mark.parametrize("expanding", [True, False])
@given(runs=runs, data=st.data())
def test_span_cut_of_one_pass_equals_pass_over_slice(expanding, runs, data):
    values = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
    y = SampledSeries(values, start_time=0, delta=1)
    start = 0 if expanding else data.draw(st.integers(1, len(values) - 2))
    n = data.draw(st.integers(2, len(values) - start))
    stop = data.draw(st.integers(start + n, len(values)))
    cut = np.diff(crossing_pass(y, n).crossings(start, stop))
    assert cut.tolist() == extract_clusters(y.with_values(values[start:stop]), n).tolist()


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


vectors = st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8)


@settings(deadline=None)
@given(vectors, st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_project_simplex_is_the_nearest_simplex_point(v, seed):
    v = np.array(v)
    p = _project_simplex(v)
    assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(_project_simplex(p), p, rtol=0, atol=1e-12)
    others = np.random.default_rng(seed).dirichlet(np.ones(len(v)), size=200)
    assert np.all(np.linalg.norm(others - v, axis=1) >= np.linalg.norm(p - v) - 1e-12)


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
