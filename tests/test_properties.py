"""Property tests for the histogram, crossing and tick invariants the pipeline relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroport import (SampledSeries, cluster_distribution, entropy_curve, entropy_index,
                       extract_clusters, parse_ticks, resample)
from entroport.dma_cluster import crossing_pass

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
