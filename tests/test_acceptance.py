"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Proprietary tick datasets are not reproducible, so every numeric criterion
runs against seeded synthetic oracles (exact-covariance FBM, brute-force
simplex grids, closed-form identities) instead of market data.
"""

import json
import sys
import time

import numpy as np
import pytest

import entroport as ep
from entroport.cli import main as cli_main
from entroport.dma_cluster import PrefixTables, _pass_histogram, crossing_pass
from entroport.portfolio import _sharpe, simplex_grid


def _report(criterion, ok, detail):
    # write through the real stdout so the line survives pytest's capture
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    return ok


def _distribution(y, n):
    """The pipeline's crossing pass over y at window n, and its histogram of all of y."""
    cpass = crossing_pass(PrefixTables(y), n)
    dist, = cpass.distributions([(0, len(y))])
    if isinstance(dist, Exception):
        raise dist
    return cpass, dist


def _index(y, n):
    _, counts = _distribution(y, n)[1]
    return ep.entropy_index(ep.entropy_curve(counts))


def test_criterion_1_substitute_oracles():
    # The Bloomberg tick datasets are proprietary: figure-level numeric
    # reproduction is explicitly out of reach. The suite substitutes seeded
    # synthetic oracles; this criterion just records that contract.
    ok = all(callable(f) for f in (ep.fbm_series, ep.arfima_series,
                                   ep.garch_series))
    assert _report(1, ok, "proprietary data not reproduced; synthetic oracle "
                          "suites substitute (criteria 2-9)")


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_criterion_2_scaling_law_recovery(hurst):
    # ensemble of 20 seeds, N = 2^17, n = 100, power-law fit over tau in [3, 50]
    target = 2.0 - hurst
    fitted = []
    for seed in range(20):
        _, (taus, counts) = _distribution(ep.fbm_series(hurst, 2 ** 17, seed), 100)
        fit = (taus >= 3) & (taus <= 50)
        assert fit.sum() >= 3
        slope = np.polyfit(np.log(taus[fit]), np.log((counts / counts.sum())[fit]), 1)[0]
        fitted.append(-float(slope))
    mean_d = float(np.mean(fitted))
    ok = abs(mean_d - target) <= 0.15
    assert _report(2, ok, f"H={hurst}: mean fitted D={mean_d:.3f}, "
                          f"target {target} +/- 0.15")


@pytest.mark.parametrize("n", [50, 100])
def test_criterion_3_entropy_curve_linear_slope(n):
    # pooled 20-seed ensemble of FBM H=0.5; linear fit of S(tau, n) over
    # tau in (2n, 5n] against the predicted 1/n slope
    durations = [np.diff(crossing_pass(PrefixTables(ep.fbm_series(0.5, 2 ** 17, seed)),
                                       n).times) for seed in range(20)]
    taus, counts = _pass_histogram(np.bincount(np.concatenate(durations)))
    svals = ep.entropy_curve(counts)
    mask = (taus > 2 * n) & (taus <= 5 * n)
    assert mask.sum() >= 3
    slope = float(np.polyfit(taus[mask], svals[mask], 1)[0])
    ok = abs(slope - 1.0 / n) <= 0.3 / n
    assert _report(3, ok, f"n={n}: slope={slope:.5f}, target {1 / n:.5f} "
                          f"+/- 30%")


def test_criterion_4_sharpe_optimizer_vs_brute_force():
    t0 = time.monotonic()
    grid = np.array(list(simplex_grid(3, 100)))  # 0.01-step simplex
    worst_gap = 0.0
    checked = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        mu = rng.normal(0.05, 0.05, 3)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T * 0.01
        if np.all(mu <= 0):
            continue
        s_opt = _sharpe(ep.max_sharpe_weights(mu, sigma), mu, sigma)
        s_grid = max(_sharpe(g, mu, sigma) for g in grid)
        worst_gap = max(worst_gap, s_grid - s_opt)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-3 and elapsed < 10.0
    assert _report(4, ok, f"{checked} instances, worst grid-minus-optimizer "
                          f"Sharpe gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_5_uniformity_limit():
    # five i.i.d. synthetic assets, shortest-horizon sample and a 180s-equivalent
    # volatility window (36 samples at 5s sampling); ensemble mean over 10 runs
    n_grid = range(5, 41, 5)  # 25..200s step 25 at 5s sampling
    window_samples = 36
    weight_sum = np.zeros(5)
    reps = 10
    for rep in range(reps):
        aggregates = []
        for asset in range(5):
            prices = ep.GeneratorSpec("fbm", 2 ** 17, 1000 * rep + asset, hurst=0.5,
                                      price_scale=1e-3).prices()
            returns = ep.linear_returns(prices)
            vol = ep.rolling_volatility(returns, window_samples)
            indices = [_index(vol, n) for n in n_grid]
            aggregates.append(ep.aggregate_index(indices))
        weight_sum += ep.cluster_entropy_weights(aggregates)
    mean_w = weight_sum / reps
    ok = bool(np.all((mean_w >= 0.15) & (mean_w <= 0.25)))
    assert _report(5, ok, f"ensemble mean weights {np.round(mean_w, 4)} "
                          f"target [0.15, 0.25]")


def test_criterion_6_exact_identities():
    uniform = ep.naive_weights(5)
    checks = {
        "uniform entropy = ln 5":
            abs(ep.weight_entropy(uniform) - np.log(5)) <= 1e-12,
        "degenerate entropy = 0":
            ep.weight_entropy(np.eye(5)[0]) == 0.0,
        "kl(w, w) = 0":
            ep.kl_cross_entropy(uniform, uniform) == 0.0,
        "I=(2,3,5) -> (0.2, 0.3, 0.5)":
            ep.cluster_entropy_weights([2, 3, 5]).tolist() == [0.2, 0.3, 0.5],
    }
    ok = all(checks.values())
    assert _report(6, ok, "; ".join(f"{k}: {'ok' if v else 'BAD'}"
                                    for k, v in checks.items()))


def test_criterion_7_conservation_property():
    rng = np.random.default_rng(2024)
    n = 50
    violations = 0
    prob_err = 0.0
    for _ in range(1000):
        y = np.cumsum(rng.standard_normal(10_000))
        cpass, (taus, counts) = _distribution(y, n)
        t = cpass.times
        if counts.sum() != len(t) - 1 or counts @ taus != t[-1] - t[0]:
            violations += 1
        prob_err = max(prob_err,
                       abs(sum((counts / counts.sum()).tolist()) - 1.0))
    ok = violations == 0 and prob_err <= 1e-12
    assert _report(7, ok, f"{violations} conservation violations in 1000 "
                          f"walks; max |sum P - 1| = {prob_err:.2e}")


def test_criterion_8_aggregation_invariance():
    # sum vs mean over the common n grid must cancel in the normalization
    n_grid = range(5, 41, 5)
    sums, means = [], []
    for asset in range(4):
        vol = ep.rolling_volatility(
            ep.linear_returns(ep.GeneratorSpec("fbm", 2 ** 15, 300 + asset, hurst=0.5,
                                               price_scale=1e-3).prices()),
            36)
        indices = [_index(vol, n) for n in n_grid]
        sums.append(ep.aggregate_index(indices, how="sum"))
        means.append(ep.aggregate_index(indices, how="mean"))
    w_sum = ep.cluster_entropy_weights(sums)
    w_mean = ep.cluster_entropy_weights(means)
    diff = float(np.max(np.abs(w_sum - w_mean)))
    ok = diff <= 1e-12
    assert _report(8, ok, f"max weight difference sum-vs-mean = {diff:.2e}")


def test_criterion_9_end_to_end_determinism(tmp_path):
    out_dir = tmp_path / "out"
    config = {
        "assets": [
            {"name": "S1", "synth": {"kind": "fbm", "hurst": 0.5,
                                     "length": 65536, "seed": 1}},
            {"name": "S2", "synth": {"kind": "garch", "omega": 1e-5,
                                     "alpha": 0.1, "beta": 0.85,
                                     "length": 65536, "seed": 2}},
        ],
        "delta_s": 60,
        "year_start": "2018-01-01",
        "n_grid_s": {"min": 120, "max": 480, "step": 120},
        "volatility_windows_s": [360],
        "horizons": [1],
        "output_dir": str(out_dir),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    assert cli_main(["analyze", str(cfg_path)]) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert cli_main(["analyze", str(cfg_path)]) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}

    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    ok = same and "manifest.json" in first and "weights.csv" in first
    assert _report(9, ok, f"{len(first)} output files byte-identical across "
                          f"two runs")
