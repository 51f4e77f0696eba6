import hashlib
import json
import logging
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entroport
from entroport import config, pipeline
from entroport.cli import main
from entroport.config import load_config
from entroport.dma_cluster import EntropyCurve, PrefixTables, compute_entropy_index
from entroport.errors import ConfigError, NoTangencyError
from entroport.pipeline import (CellResult, PipelineResult, emit_figure_data,
                                load_asset_prices, run_pipeline)
from entroport.returns_vol import linear_returns, rolling_volatility
from entroport.series import SampledSeries, slice_horizon, whole_samples

BASE_CONFIG = {
    "assets": [
        {"name": "SYN1", "synth": {"kind": "fbm", "hurst": 0.5,
                                   "length": 65536, "seed": 1}},
        {"name": "SYN2", "synth": {"kind": "fbm", "hurst": 0.5,
                                   "length": 65536, "seed": 2}},
    ],
    "delta_s": 60,
    "year_start": "2018-01-01",
    "n_grid_s": {"min": 120, "max": 480, "step": 120},
    "volatility_windows_s": [360],
    "horizons": [1],
    "min_clusters": 50,
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def _exits_naming(argv, code, caplog, needle):
    """main(argv) returns `code` and logs an error naming `needle`, without a traceback."""
    assert main([str(a) for a in argv]) == code
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert any(needle in r.getMessage() for r in errors), errors
    assert all(r.exc_info is None for r in errors)


def _exits_2_naming(cfg_path, caplog, needle):
    _exits_naming(["analyze", cfg_path], 2, caplog, needle)


def _read_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestAnalyze:
    def test_structural_row_counts(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        assert main(["analyze", str(cfg_path)]) == 0
        out = tmp_path / "out"
        header, rows = _read_rows(out / "weights.csv")
        assert header == ["method", "horizon", "T_s", "asset", "weight"]
        methods = {r[0] for r in rows}
        assert methods == {"cluster_entropy_high", "cluster_entropy_low",
                           "max_sharpe", "naive_1_over_N"}
        # 2 assets x 1 horizon x 1 window per method
        for m in methods:
            assert sum(1 for r in rows if r[0] == m) == 2
        # weights sum to 1 per (method, horizon, T)
        for m in methods:
            total = sum(float(r[4]) for r in rows if r[0] == m)
            assert total == pytest.approx(1.0, abs=1e-9)
        assert (out / "manifest.json").exists()
        assert (out / "entropy_curves.csv").exists()
        assert (out / "indices_by_n.csv").exists()
        assert (out / "indices_aggregated.csv").exists()
        assert (out / "diagnostics.csv").exists()

    def test_missing_input_exits_3_without_partial_outputs(self, tmp_path):
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "X", "ticks": "does_not_exist.csv"},
                       BASE_CONFIG["assets"][1]]})
        assert main(["analyze", str(cfg_path)]) == 3
        assert not (tmp_path / "out" / "weights.csv").exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 3

    def test_config_directory_exits_3(self, tmp_path, caplog):
        _exits_naming(["analyze", tmp_path], 3, caplog, "Is a directory")

    def test_tick_path_directory_exits_3(self, tmp_path, caplog):
        (tmp_path / "ticks").mkdir()
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [BASE_CONFIG["assets"][0], {"name": "X", "ticks": "ticks"}]})
        _exits_naming(["analyze", cfg_path], 3, caplog,
                      f"asset 'X' ({tmp_path / 'ticks'}): Is a directory")
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, caplog):
        (tmp_path / "out").write_text("not a directory\n")
        _exits_naming(["analyze", _write_config(tmp_path)], 2, caplog,
                      f"cannot write outputs to {tmp_path / 'out'}")
        assert (tmp_path / "out").read_text() == "not a directory\n"

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = _write_config(tmp_path, overrides={"horizons": [0]})
        assert main(["analyze", str(cfg_path)]) == 2

    def test_non_divisible_window_exits_2(self, tmp_path):
        cfg_path = _write_config(tmp_path, overrides={
            "volatility_windows_s": [90]})  # not a multiple of 60s
        assert main(["analyze", str(cfg_path)]) == 2

    def test_insufficient_clusters_exits_4(self, tmp_path):
        cfg_path = _write_config(tmp_path, overrides={"min_clusters": 10 ** 9})
        assert main(["analyze", str(cfg_path)]) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg_a = _write_config(tmp_path / "a", name="c.json")
        cfg_b = _write_config(tmp_path / "b", name="c.json")
        assert main(["analyze", str(cfg_a)]) == 0
        assert main(["analyze", str(cfg_b)]) == 0
        for name in ("entropy_curves.csv", "indices_by_n.csv",
                     "indices_aggregated.csv", "weights.csv",
                     "diagnostics.csv"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("change", ["rewrite", "remove"])
    def test_manifest_hashes_the_config_bytes_parsed(self, tmp_path, monkeypatch, change):
        """The config file changes while it is parsed, before any second read could see it."""
        cfg_path = _write_config(tmp_path)
        parsed = cfg_path.read_bytes()
        parse, calls = config.config_from_dict, []

        def parse_then_change_the_file(*args, **kwargs):
            calls.append(change)
            if change == "rewrite":
                cfg_path.write_text(json.dumps({**BASE_CONFIG, "horizons": [2]}))
            else:
                cfg_path.unlink()
            return parse(*args, **kwargs)

        monkeypatch.setattr(config, "config_from_dict", parse_then_change_the_file)
        assert main(["analyze", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert calls == [change]
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = load_config(_write_config(tmp_path))
        run_pipeline(cfg, config_bytes=b"")
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        written = []

        def fail_after_first_output(path, *args, **kwargs):
            if Path(path).parent == out:
                if written:
                    raise OSError("simulated failure while writing outputs")
                written.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", fail_after_first_output, raising=False)
        with pytest.raises(OSError, match="simulated"):
            run_pipeline(cfg, config_bytes=b"")
        assert written == ["entropy_curves.csv"]
        assert not (out / "manifest.json").exists()

    def test_relative_paths_resolve_as_documented(self, tmp_path, monkeypatch):
        """A relative output_dir is under the working directory, a ticks path by the config."""
        config_dir, work_dir = tmp_path / "config", tmp_path / "work"
        config_dir.mkdir()
        work_dir.mkdir()
        _sticky_tick_file(config_dir / "t1.csv", 1)
        cfg_path = _write_config(config_dir, overrides={
            "assets": [{"name": "T1", "ticks": "t1.csv"}, BASE_CONFIG["assets"][0]],
            "output_dir": "out"})
        monkeypatch.chdir(work_dir)
        assert main(["analyze", str(cfg_path)]) == 0
        assert (work_dir / "out" / "manifest.json").is_file()
        assert not (config_dir / "out").exists()

    # each request exceeds a 47-bit address space, so numpy refuses it unallocated
    @pytest.mark.parametrize("source", ["synth", "ticks"])
    def test_out_of_memory_exits_2_naming_the_asset(self, tmp_path, caplog, source):
        if source == "synth":
            asset = {"name": "BIG", "synth": {"kind": "fbm", "hurst": 0.5,
                                              "length": 2 ** 47, "seed": 1}}
            where = "asset 'BIG' (synth fbm)"
        else:  # a year of 1 ns grid points
            (tmp_path / "two.csv").write_text(
                "timestamp_ns,price\n1514764800000000000,100.0\n1546300799000000000,101.0\n")
            asset = {"name": "BIG", "ticks": "two.csv"}
            where = f"asset 'BIG' ({tmp_path / 'two.csv'})"
        cfg_path = _write_config(tmp_path, overrides={"assets": [asset], "delta_s": 1e-9})
        _exits_2_naming(cfg_path, caplog, f"{where}: out of memory (Unable to allocate")
        assert not (tmp_path / "out").exists()

    def test_n_longer_than_the_source_warns_series_too_short(self, tmp_path):
        # 50,000 samples outrun January's 44,634 volatility values; n = 2 runs
        cfg_path = _write_config(tmp_path, overrides={
            "n_grid_s": {"min": 120, "max": 3_000_000, "step": 2_999_880}})
        result = run_pipeline(load_config(cfg_path), config_bytes=b"")
        assert result.warnings == [f"{name} M=1 T=360s n=50000: series too short"
                                   for name in ("SYN1", "SYN2")]
        assert all(list(cell.curves) == [2] for cell in result.cells.values())

    def test_window_longer_than_a_horizon_exits_2(self, tmp_path, caplog):
        # January holds 44,640 prices, so 44,639 returns
        cfg_path = _write_config(tmp_path, overrides={"volatility_windows_s": [44_640 * 60]})
        _exits_2_naming(cfg_path, caplog, "window (44640) longer than series (44639)")

    def test_monthly_horizon_with_one_price_exits_2(self, tmp_path, caplog):
        # at 28-day steps from 2018-01-01, February holds only 2018-02-26
        days = 28 * 86400
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "SYN1", "synth": {"kind": "fbm", "hurst": 0.5,
                                                  "length": 16, "seed": 1}}],
            "delta_s": days, "n_grid_s": {"min": 2 * days, "max": 2 * days, "step": 1},
            "volatility_windows_s": [2 * days], "horizons": [2], "horizon_mode": "monthly"})
        _exits_2_naming(cfg_path, caplog, "need at least 2 prices to compute returns")

    def test_ticks_before_year_start_feed_no_expanding_horizon(self, tmp_path):
        """Ticks from 2017-12-01: expanding M=1 is January, as monthly M=1 is."""
        t0 = 1512086400 * 10 ** 9  # 2017-12-01 UTC
        n_ticks = 62 * 1440  # December and January
        assets = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            prices = 100 * np.exp(np.cumsum(rng.standard_normal(n_ticks)) * 1e-3)
            (tmp_path / f"t{seed}.csv").write_text("timestamp_ns,price\n" + "".join(
                f"{t0 + i * 60 * 10 ** 9},{p:.6f}\n" for i, p in enumerate(prices.tolist())))
            assets.append({"name": f"T{seed}", "ticks": f"t{seed}.csv"})
        outputs = {}
        for mode in ("expanding", "monthly"):
            cfg = load_config(_write_config(tmp_path, name=f"{mode}.json", overrides={
                "assets": assets, "horizon_mode": mode,
                "output_dir": str(tmp_path / mode)}))
            run_pipeline(cfg, config_bytes=b"")
            outputs[mode] = {name: (tmp_path / mode / name).read_bytes() for name in (
                "entropy_curves.csv", "indices_by_n.csv", "weights.csv", "diagnostics.csv")}
        assert outputs["expanding"] == outputs["monthly"]

    def test_warning_recorded_for_dropped_n(self, tmp_path):
        # high min_clusters drops the largest n but not the smallest
        cfg_path = _write_config(tmp_path, overrides={"min_clusters": 15000})
        cfg = load_config(cfg_path)
        result = run_pipeline(cfg, config_bytes=b"")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert result.warnings == manifest["warnings"]
        assert any("dropped" in w for w in manifest["warnings"])


class TestTickIngestion:
    def test_analyze_from_tick_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["timestamp_ns,price"]
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        n_ticks = 50_000
        prices = 100 * np.exp(np.cumsum(rng.standard_normal(n_ticks)) * 1e-3)
        for i in range(n_ticks):
            lines.append(f"{t0 + i * 60 * 10 ** 9},{prices[i]:.6f}")
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("\n".join(lines) + "\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "TICK", "ticks": "ticks.csv"},
                       BASE_CONFIG["assets"][1]]})
        assert main(["analyze", str(cfg_path)]) == 0
        _, rows = _read_rows(tmp_path / "out" / "weights.csv")
        assert {"TICK", "SYN2"} == {r[3] for r in rows}

    def test_timestamp_outside_int64_exits_2(self, tmp_path, caplog):
        (tmp_path / "ticks.csv").write_text(
            "timestamp_ns,price\n1514764800000000000,100.0\n99999999999999999999,101.0\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "TICK", "ticks": "ticks.csv"},
                       BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "line 3")

    def test_non_utf8_tick_file_exits_2(self, tmp_path, caplog):
        (tmp_path / "ticks.csv").write_bytes(
            b"timestamp_ns,price\n1514764800000000000,100.0\n1514764860000000000,1\xff01.0\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "TICK", "ticks": "ticks.csv"},
                       BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "line 3: not valid UTF-8")

    def test_bad_second_tick_file_is_named(self, tmp_path, caplog):
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        rows = "".join(f"{t0 + i * 60 * 10 ** 9},{100.0 + i}\n" for i in range(50))
        (tmp_path / "good.csv").write_text("timestamp_ns,price\n" + rows)
        (tmp_path / "bad.csv").write_bytes(
            b"timestamp_ns,price\n1514764800000000000,100.0\n1514764860000000000,1\xff01.0\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "GOOD", "ticks": "good.csv"},
                       {"name": "BAD", "ticks": "bad.csv"}]})
        _exits_2_naming(cfg_path, caplog,
                        f"asset 'BAD' ({tmp_path / 'bad.csv'}): line 3: not valid UTF-8")

    # minute 1000 of asset A: a price near 0 gives a return near 1e302, whose
    # square overflows; followed by 1e10, the return itself overflows. Either
    # exits 2 naming the asset (and the window), with no numpy RuntimeWarning
    # (the test config turns one into an error)
    @pytest.mark.parametrize("spike, needle", [
        ({1000: 1e-300}, ", volatility window 360s: the volatility of a 6-sample window "
                         "overflows float64"),
        ({1000: 1e-300, 1001: 1e10}, ": a simple return overflows float64"),
    ], ids=["volatility", "return"])
    def test_overflow_exits_2_naming_the_asset(self, tmp_path, caplog, spike, needle):
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        for name, prices in (("a.csv", spike), ("b.csv", {})):
            rows = "".join(f"{t0 + i * 60 * 10 ** 9},{prices.get(i, 100.0 + i % 7)}\n"
                           for i in range(44_700))
            (tmp_path / name).write_text("timestamp_ns,price\n" + rows)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}]})
        _exits_2_naming(cfg_path, caplog, f"asset 'A' ({tmp_path / 'a.csv'}){needle}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["expanding", "monthly"])
    def test_tick_grids_with_different_starts_exit_2(self, tmp_path, caplog, mode):
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        shift = (3 * 3600 + 17) * 10 ** 9
        for name, first in (("a.csv", t0), ("b.csv", t0 + shift)):
            rows = "".join(f"{first + i * 60 * 10 ** 9},{100.0 + i}\n" for i in range(50))
            (tmp_path / name).write_text("timestamp_ns,price\n" + rows)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}],
            "horizon_mode": mode})
        _exits_2_naming(cfg_path, caplog, f"[{t0}, {t0 + shift}]")


# 2^17 one-minute samples span January and February 2018
TWO_MONTHS = [{"name": f"SYN{seed}", "synth": {"kind": "fbm", "hurst": 0.5,
                                               "length": 2 ** 17, "seed": seed}}
              for seed in (1, 2)]


@pytest.mark.parametrize("source", ["volatility", "return"])
@pytest.mark.parametrize("mode", ["expanding", "monthly"])
def test_multi_horizon_indices_match_per_horizon_oracle(tmp_path, mode, source):
    """Cutting horizons out of one pass per series matches a pass over each slice."""
    cfg = load_config(_write_config(tmp_path, overrides={
        "assets": TWO_MONTHS, "horizons": [1, 2], "horizon_mode": mode,
        "entropy_source": source}))
    run_pipeline(cfg, config_bytes=b"")
    _, rows = _read_rows(tmp_path / "out" / "indices_by_n.csv")
    got = {(a, int(m), int(t_s), int(n)): value for a, m, t_s, n, value in rows}

    expected = {}
    for asset in cfg.assets:
        prices = load_asset_prices(asset, cfg)
        for m in cfg.horizons:
            span = slice_horizon(prices, cfg.year_start, m, mode=mode)
            rets = linear_returns(prices.with_values(prices.values[span]))
            for t_s in cfg.volatility_windows_s:
                w = whole_samples(t_s, cfg.delta_ns, "volatility window")
                y = rets if source == "return" else rolling_volatility(rets, w)
                for n in cfg.n_grid_samples():
                    ix = compute_entropy_index(
                        y, n, threshold_m=cfg.threshold_for(n),
                        estimator=cfg.entropy_estimator, min_clusters=cfg.min_clusters)
                    expected[(asset.name, m, t_s, n)] = repr(ix.value)
    assert got == expected


# hourly grid: a month is ~740 volatility samples, so at min_clusters=250 the
# first horizons drop or are too short at large n and the later ones keep them
EDGE_CONFIG = {
    "assets": [{"name": f"SYN{seed}", "synth": {"kind": "fbm", "hurst": 0.5,
                                                "length": 4096, "seed": seed}}
               for seed in (1, 2)],
    "delta_s": 3600,
    "n_grid_s": {"min": 7200, "max": 7200 + 4 * 720000, "step": 720000},
    "volatility_windows_s": [10800],
    "horizons": [1, 2, 3, 4],
    "min_clusters": 250,
}


def test_running_histogram_across_dropped_and_short_horizons(tmp_path, caplog):
    """Horizons sharing a start grow one histogram through dropped and too-short cells."""
    caplog.set_level(logging.DEBUG, logger="entroport.pipeline")
    run_pipeline(load_config(_write_config(tmp_path, overrides=EDGE_CONFIG)),
                 config_bytes=b"")
    out = tmp_path / "out"
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    assert "SYN1 M=1 T=10800s n=802: series too short" in warnings
    assert "SYN1 M=2 T=10800s n=802: dropped (183 clusters at n=802, need >= 250)" in warnings
    # digests of the outputs of per-cell histograms, before the running bincount
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("manifest.json", "indices_by_n.csv", "entropy_curves.csv")}
    assert digests == {
        "manifest.json": "f08f4d5bf0fa021d352df6a9f7cc83ea553270b13fa2787a359e377f703b99f8",
        "indices_by_n.csv": "f694448e56a45ce9ef9895a27dafb61d39a48d851dcbc6f3267f77e9c1efc469",
        "entropy_curves.csv": "0c795a339c3403c878cc61836e81a5d19fd99f4ef88e3b9156a204670cf80c01",
    }
    passes = [r.getMessage() for r in caplog.records
              if "crossings; cells" in r.getMessage()]
    assert len(passes) == 2 * 5  # one per (asset, window, n)
    assert any(m.startswith("SYN1 T=10800s n=802: ") and
               m.endswith("cells 2 kept, 1 dropped, 1 too short") for m in passes)


def _sticky_tick_file(path, seed, n_ticks=50_000):
    """One-minute ticks on a cent grid that mostly repeat the last price."""
    rng = np.random.default_rng(seed)
    moves = np.where(rng.random(n_ticks) < 0.8, 0, rng.choice([-1, 1], n_ticks))
    cents = 10_000 + np.cumsum(moves)
    t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
    path.write_text("timestamp_ns,price\n" + "".join(
        f"{t0 + i * 60 * 10 ** 9},{c / 100:.2f}\n" for i, c in enumerate(cents.tolist())))


def test_exact_zero_deviations_keep_their_bytes(tmp_path):
    """Repeated tick prices give runs of zero volatility, so y - MA is exactly 0 there."""
    for seed in (1, 2):
        _sticky_tick_file(tmp_path / f"t{seed}.csv", seed)
    cfg = load_config(_write_config(tmp_path, overrides={
        "assets": [{"name": f"T{seed}", "ticks": f"t{seed}.csv"} for seed in (1, 2)]}))
    prices = load_asset_prices(cfg.assets[0], cfg)
    y = rolling_volatility(linear_returns(prices),
                           whole_samples(360, cfg.delta_ns, "volatility window")).values
    n = min(cfg.n_grid_samples())
    assert np.any(y[n - 1:] == np.convolve(y, np.full(n, 1.0 / n), mode="valid"))
    run_pipeline(cfg, config_bytes=b"")
    out = tmp_path / "out"
    # digests of the outputs before crossings were read from boolean flips
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("indices_by_n.csv", "entropy_curves.csv")}
    assert digests == {
        "indices_by_n.csv": "6418fbbb6959d09a0cb2ce92f6e2bd0ad1ba77de9da5fe261069114f138c2f58",
        "entropy_curves.csv": "5bedc4c5f01dcd5b09c3a085f85771f9c86c3f68288d7c9da17702ad92c6f671",
    }


# float sources with no exact-zero deviation; n runs from 2 to 26 samples, so
# np.convolve's per-output dot leaves its short-kernel loop for the long ones
FLOAT_SOURCE_CONFIG = {
    "assets": [
        {"name": "FBM", "synth": {"kind": "fbm", "hurst": 0.6, "length": 32768, "seed": 1}},
        {"name": "GARCH", "synth": {"kind": "garch", "omega": 1e-6, "alpha": 0.05,
                                    "beta": 0.9, "length": 32768, "seed": 4}},
    ],
    "delta_s": 120,
    "n_grid_s": {"min": 240, "max": 3120, "step": 360},
    "volatility_windows_s": [360, 720],
    "horizons": [1],
}


@pytest.mark.parametrize("source, digests", [
    ("volatility", {
        "indices_by_n.csv": "9e3685b1f36b807dbace1edad60032759472b52d9b464fc0fca59766446a3366",
        "entropy_curves.csv": "edf0e000987747545fb822f6215b50c622df370f0282ca4c1d698b1e86565b22"}),
    ("return", {
        "indices_by_n.csv": "17316f599c94ea89a6aada2446830b0ed58298ffe6c8f882cb723db56ca04d82",
        "entropy_curves.csv": "bd2260b46e2f9942353c538fc5b3fa605a004efc0f3b4e7ca80e4b4013960547"}),
])
def test_float_sources_keep_their_bytes(tmp_path, source, digests):
    """Certified signs give the crossings of the full np.convolve, so the same bytes."""
    cfg = load_config(_write_config(tmp_path, overrides=dict(FLOAT_SOURCE_CONFIG,
                                                             entropy_source=source)))
    run_pipeline(cfg, config_bytes=b"")
    # digests of the outputs while every pass called np.convolve in full
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_debug_line_reports_how_signs_were_settled(tmp_path, caplog):
    """-v names each pass's sign rule, certified or full convolve and why; the manifest does not."""
    caplog.set_level(logging.DEBUG, logger="entroport.pipeline")
    _sticky_tick_file(tmp_path / "t1.csv", 1)
    cfg_path = _write_config(tmp_path, overrides={
        "assets": [{"name": "T1", "ticks": "t1.csv"}, BASE_CONFIG["assets"][0]],
        "volatility_windows_s": [360], "min_clusters": 1})
    run_pipeline(load_config(cfg_path), config_bytes=b"")
    passes = [r.getMessage() for r in caplog.records if "crossings; cells" in r.getMessage()]
    # repeated prices give flat runs longer than every n, so every pass of T1 convolves
    sticky = [re.match(r"T1 T=360s n=(\d+): full convolve \(flat run (\d+) >= n\); ", m)
              for m in passes if m.startswith("T1 ")]
    assert len(sticky) == 4 and all(m and int(m[2]) >= int(m[1]) for m in sticky)
    synth = [m for m in passes if m.startswith("SYN1 ")]
    assert len(synth) == 4 and all(re.search(r": signs certified; ", m) for m in synth)
    manifest = (tmp_path / "out" / "manifest.json").read_text()
    assert "certified" not in manifest and "convolve" not in manifest


@pytest.mark.parametrize("run, reason", [
    (np.arange(12), r"signs in doubt"),  # 1-ulp steps: no two values are equal
    (np.zeros(8), r"flat run 8 >= n"),   # a run of exactly n equal values
])
def test_debug_line_names_why_a_pass_convolved(tmp_path, caplog, run, reason):
    caplog.set_level(logging.DEBUG, logger="entroport.pipeline")
    values = np.random.default_rng(7).standard_normal(2 ** 14)
    values[10000:10000 + len(run)] = values[10000] + np.spacing(values[10000]) * run
    tables = PrefixTables(SampledSeries(values, start_time=0, delta=1))
    cells = [CellResult(asset="A", horizon=1, window_s=360)]
    pipeline._add_n(cells, [(0, len(values))], tables, 8,
                    load_config(_write_config(tmp_path, overrides={"min_clusters": 1})))
    assert 8 in cells[0].curves
    assert re.match(rf"A T=360s n=8: full convolve \({reason}\); ",
                    caplog.records[-1].getMessage())


def test_curve_rows_equal_per_row_format(tmp_path):
    curve = EntropyCurve(n=5, taus=np.array([1, 2, 7, 10 ** 6]),
                         values=np.array([0.0, -0.0, 0.1 + 0.2, 1e-300]))
    other = EntropyCurve(n=3, taus=np.array([4]), values=np.array([123456789.125]))
    cells = {("B", 2, 360): CellResult("B", 2, 360, curves={5: curve, 3: other}),
             ("A", 12, 60): CellResult("A", 12, 60, curves={3: other})}
    result = PipelineResult(cells=cells, weights=[], diagnostics=[], warnings=[])
    cfg = load_config(_write_config(tmp_path))
    pipeline._write_outputs(result, cfg, b"")
    per_row = "asset,horizon,T_s,n,tau,S\n" + "".join(
        f"{c.asset},{c.horizon},{c.window_s},{n},{tau},{repr(float(s))}\n"
        for c in (cells[k] for k in sorted(cells)) for n in sorted(c.curves)
        for tau, s in zip(c.curves[n].taus.tolist(), c.curves[n].values.tolist()))
    assert (tmp_path / "out" / "entropy_curves.csv").read_text() == per_row


def _count_max_sharpe_calls(monkeypatch, solve):
    calls = []

    def counted(moments, labels):
        calls.append(labels)
        return solve(moments, labels)

    monkeypatch.setattr(pipeline, "max_sharpe_weights", counted)
    return calls


def test_max_sharpe_solved_once_per_horizon(tmp_path, monkeypatch):
    calls = _count_max_sharpe_calls(monkeypatch, pipeline.max_sharpe_weights)
    cfg = load_config(_write_config(tmp_path, overrides={
        "assets": TWO_MONTHS, "horizons": [1, 2], "volatility_windows_s": [360, 720]}))
    run_pipeline(cfg, config_bytes=b"")
    assert len(calls) == 2
    _, rows = _read_rows(tmp_path / "out" / "weights.csv")
    by_window: dict[tuple[str, str], dict[str, str]] = {}
    for method, m, t_s, asset, w in rows:
        if method == "max_sharpe":
            by_window.setdefault((m, asset), {})[t_s] = w
    assert len(by_window) == 4
    assert all(len(ws) == 2 and len(set(ws.values())) == 1 for ws in by_window.values())


def test_no_tangency_warns_once_per_window(tmp_path, monkeypatch):
    def no_tangency(moments, labels):
        raise NoTangencyError("all expected returns are non-positive")

    calls = _count_max_sharpe_calls(monkeypatch, no_tangency)
    cfg_path = _write_config(tmp_path, overrides={"volatility_windows_s": [360, 720]})
    assert main(["analyze", str(cfg_path)]) == 0
    assert len(calls) == 1
    warnings = json.loads((tmp_path / "out" / "manifest.json").read_text())["warnings"]
    assert [w for w in warnings if "max_sharpe" in w] == [
        f"M=1 T={t_s}s: max_sharpe skipped (all expected returns are non-positive)"
        for t_s in (360, 720)]
    _, rows = _read_rows(tmp_path / "out" / "weights.csv")
    assert not any(r[0] == "max_sharpe" for r in rows)


class TestFigures:
    def test_figure_exports(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        assert main(["analyze", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert main(["figures", str(out)]) == 0
        fig_dir = out / "figures"
        entropy_files = sorted(fig_dir.glob("fig_entropy_*.csv"))
        assert len(entropy_files) == 2  # one per (asset, M, T)
        header, rows = _read_rows(entropy_files[0])
        assert header == ["n", "tau", "S"]
        assert rows
        header, rows = _read_rows(fig_dir / "fig_weights_vs_horizon.csv")
        assert header == ["method", "T_s", "M", "asset", "weight"]

    def test_unknown_figure_key(self, tmp_path):
        with pytest.raises(ValueError):
            emit_figure_data(tmp_path, "bogus")

    def test_missing_run_dir_exits_3(self, tmp_path):
        assert main(["figures", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize("name, row, reason", [
        ("entropy_curves.csv", "A,1,360", "expected 6 fields, got 3"),
        ("entropy_curves.csv", "A,1,360,x,2,0.5", "invalid literal for int()"),
        ("weights.csv", "naive_1_over_N,1,360,A,0.5,9", "expected 5 fields, got 6")])
    def test_malformed_run_csv_names_file_and_line(self, tmp_path, caplog, name, row, reason):
        header = {"entropy_curves.csv": "asset,horizon,T_s,n,tau,S\nA,1,360,2,1,0.5",
                  "weights.csv": "method,horizon,T_s,asset,weight\nnaive_1_over_N,1,360,B,0.5"}
        (tmp_path / name).write_text(f"{header[name]}\n\n{row}\n")
        figure = "entropy_curves" if name == "entropy_curves.csv" else "weights_vs_horizon"
        _exits_naming(["figures", tmp_path, "--figure", figure], 2, caplog,
                      f"{tmp_path / name}: line 4: {reason}")

    @pytest.mark.parametrize("name, header, figure", [
        ("entropy_curves.csv", "asset,horizon,T_s,n,tau,S", "entropy_curves"),
        ("weights.csv", "method,horizon,T_s,asset,weight", "weights_vs_horizon")])
    def test_header_only_run_csv_exits_2(self, tmp_path, caplog, name, header, figure):
        (tmp_path / name).write_text(header + "\n")
        _exits_naming(["figures", tmp_path, "--figure", figure], 2, caplog,
                      f"{tmp_path / name}: no ")
        assert not (tmp_path / "figures").exists()

    def test_unreadable_curves_exit_3(self, tmp_path, caplog):
        (tmp_path / "entropy_curves.csv").mkdir()
        _exits_naming(["figures", tmp_path, "--figure", "entropy_curves"], 3, caplog,
                      f"{tmp_path / 'entropy_curves.csv'}: Is a directory")


class TestSynthCommand:
    def test_emits_cache_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main(["synth", "--kind", "fbm", "--hurst", "0.5", "--length",
                   "1024", "--seed", "5", "--delta-s", "2", "--out", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# kind=price delta_ns=2000000000")
        assert text[1] == "t_ns,value"
        assert len(text) == 2 + 1024

    def test_start_date_is_midnight_utc(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["synth", "--kind", "fbm", "--hurst", "0.5", "--length", "4",
                     "--seed", "5", "--start", "2019-07-13", "--out", str(out)]) == 0
        stamps = [int(row.split(",")[0]) for row in out.read_text().splitlines()[2:]]
        assert stamps == [(1_562_976_000 + k) * 10 ** 9 for k in range(4)]

    def test_missing_parameter_exits_2(self, tmp_path):
        rc = main(["synth", "--kind", "fbm", "--length", "1024", "--seed",
                   "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("extra, needle", [
        (["--delta-s", "nan"], "--delta-s nan is not a finite"),
        (["--delta-s", "inf"], "--delta-s inf is not a finite"),
        (["--delta-s", "1e300"], "--delta-s 1e+300 is not a finite"),
        (["--delta-s", "1e10"], "do not fit int64 nanoseconds"),
        (["--start", "2300-01-01"], "--start 2300-01-01 at --delta-s 1.0 do not fit"),
        (["--start", "1600-01-01"], "--start 1600-01-01 at --delta-s 1.0 do not fit"),
        (["--delta-s", "1e-12"], "--delta-s 1e-12 is below one nanosecond"),
    ])
    def test_unrepresentable_sample_times_exit_2(self, tmp_path, caplog, extra, needle):
        _exits_naming(["synth", "--kind", "fbm", "--hurst", "0.5", "--length", "16",
                       "--seed", "5", "--out", tmp_path / "x.csv", *extra], 2, caplog, needle)
        assert not (tmp_path / "x.csv").exists()

    def test_bad_hurst_exits_2(self, tmp_path):
        rc = main(["synth", "--kind", "fbm", "--hurst", "1.5", "--length",
                   "1024", "--seed", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, caplog):
        _exits_naming(["synth", "--kind", "fbm", "--hurst", "0.5", "--length", "16",
                       "--seed", "-1", "--out", tmp_path / "x.csv"], 2, caplog,
                      "--seed: must be >= 0, got -1")
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_garch_parameter_exits_2_naming_it(self, tmp_path, caplog):
        _exits_naming(["synth", "--kind", "garch", "--omega", "nan", "--alpha", "0.05",
                       "--beta", "0.9", "--length", "16", "--seed", "5",
                       "--out", tmp_path / "x.csv"], 2, caplog, "omega must be finite, got nan")
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_memory_exits_2(self, tmp_path, caplog):
        # 2**47 samples exceed a 47-bit address space, so numpy refuses them unallocated
        _exits_naming(["synth", "--kind", "garch", "--omega", "1e-6", "--alpha", "0.05",
                       "--beta", "0.9", "--length", 2 ** 47, "--seed", "5",
                       "--delta-s", "1e-9", "--out", tmp_path / "x.csv"], 2, caplog,
                      "out of memory: Unable to allocate")
        assert not (tmp_path / "x.csv").exists()


class TestConfigValidation:
    def test_defaults_mirror_reported_sweep(self, tmp_path):
        cfg_path = _write_config(tmp_path, overrides={"delta_s": 5})
        raw = json.loads(cfg_path.read_text())
        del raw["n_grid_s"], raw["volatility_windows_s"], raw["horizons"]
        cfg_path.write_text(json.dumps(raw))
        cfg = load_config(cfg_path)
        assert cfg.n_grid_s == tuple(range(25, 201, 25))
        assert cfg.volatility_windows_s == (180, 360, 720)
        assert cfg.horizons == tuple(range(1, 13))

    def test_duplicate_asset_names(self, tmp_path):
        assets = [BASE_CONFIG["assets"][0], BASE_CONFIG["assets"][0]]
        cfg_path = _write_config(tmp_path, overrides={"assets": assets})
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_unknown_top_level_key_exits_2(self, tmp_path, caplog):
        cfg_path = _write_config(tmp_path, overrides={"horizon_mod": "monthly"})
        _exits_2_naming(cfg_path, caplog, "'horizon_mod'")

    def test_unknown_asset_key_exits_2(self, tmp_path, caplog):
        asset = dict(BASE_CONFIG["assets"][0], tick="ticks.csv")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "'tick'")

    def test_asset_with_ticks_and_synth_exits_2(self, tmp_path, caplog):
        (tmp_path / "ticks.csv").write_text("timestamp_ns,price\n0,1.0\n")
        asset = dict(BASE_CONFIG["assets"][0], ticks="ticks.csv")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "exactly one of 'ticks' or 'synth'")

    @pytest.mark.parametrize("key, values", [("horizons", [1, 1]),
                                             ("volatility_windows_s", [360, 360])])
    def test_duplicate_entries_exit_2(self, tmp_path, caplog, key, values):
        cfg_path = _write_config(tmp_path, overrides={key: values})
        _exits_2_naming(cfg_path, caplog, f"{key}: duplicate entries")

    @pytest.mark.parametrize("key, value", [
        ("delta_s", float("nan")), ("delta_s", float("inf")), ("delta_s", 1e300),
        ("delta_s", 1e-12), ("year_start", "1600-01-01"), ("year_start", "2300-01-01"),
        ("year_start", "9999-12-01")])
    def test_time_grid_outside_int64_nanoseconds_exits_2(self, tmp_path, caplog, key, value):
        _exits_2_naming(_write_config(tmp_path, overrides={key: value}), caplog, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("volatility_windows_s", []), ("horizons", []),
        ("n_grid_s", {"min": 480, "max": 120, "step": 120}), ("threshold_m", True),
        ("n_grid_s", {"min": 120, "max": 480, "step": 0})])
    def test_empty_sweep_or_boolean_threshold_exits_2(self, tmp_path, caplog, key, value):
        _exits_2_naming(_write_config(tmp_path, overrides={key: value}), caplog, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, needle", [
        ("min_clusters", True, "min_clusters: expected an integer, got True"),
        ("min_clusters", 50.5, "min_clusters: expected an integer, got 50.5"),
        ("horizons", [True], "horizons: expected an integer, got True"),
        ("horizons", ["1"], "horizons: expected an integer, got '1'"),
        ("volatility_windows_s", [1800.9], "volatility_windows_s: expected an integer, "
                                           "got 1800.9"),
        ("n_grid_s", {"min": 120.5, "max": 480, "step": 120}, "n_grid_s.min: expected"),
        ("n_grid_s", {"min": 120, "max": False, "step": 120}, "n_grid_s.max: expected"),
        ("n_grid_s", {"min": 120, "max": 480, "step": True}, "n_grid_s.step: expected"),
        ("threshold_m", 5.5, "threshold_m: expected an integer, got 5.5"),
        ("threshold_m", "5", "threshold_m: expected an integer, got '5'"),
        ("delta_s", "60", "delta_s: expected a number, got '60'"),
        ("delta_s", True, "delta_s: expected a number, got True")])
    def test_non_integer_fields_exit_2(self, tmp_path, caplog, key, value, needle):
        _exits_2_naming(_write_config(tmp_path, overrides={key: value}), caplog, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("length", 65536.5), ("length", True),
                                              ("seed", False), ("seed", 1.25)])
    def test_non_integer_synth_fields_exit_2(self, tmp_path, caplog, field, value):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"][field] = value
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog,
                        f"asset 'SYN1' synth {field}: expected an integer, got {value!r}")

    @pytest.mark.parametrize("overrides, needle", [
        ({"entropy_estimator": "gini"}, "unknown entropy_estimator 'gini'"),
        ({"entropy_source": "price"}, "unknown entropy_source 'price'"),
        ({"aggregation": "max"}, "unknown aggregation 'max'"),
        ({"horizon_mode": "weekly"}, "unknown horizon_mode 'weekly'"),
        ({"return_kind": "linear"}, "unknown return_kind 'linear'"),
        ({"threshold_m": 0}, "threshold_m must be 'n' or a positive integer, got 0"),
        ({"min_clusters": 0}, "min_clusters must be >= 1"),
        ({"assets": []}, "at least one asset is required"),
        ({"assets": 5}, "bad config: TypeError(\"'int' object is not iterable\")")])
    def test_bad_config_values_exit_2(self, tmp_path, caplog, overrides, needle):
        _exits_2_naming(_write_config(tmp_path, overrides=overrides), caplog, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, needle", [
        ("{\"assets\": ", "config.json: not valid JSON (Expecting value"),
        ("[]", "config root must be a JSON object")])
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, caplog, text, needle):
        (tmp_path / "config.json").write_text(text)
        _exits_2_naming(tmp_path / "config.json", caplog, needle)

    @pytest.mark.parametrize("synth, needle", [
        ({"kind": "fbm", "hurst": 0.5, "length": 65536},
         "asset 'SYN1': synth spec missing 'seed'"),
        ({"kind": "levy", "length": 65536, "seed": 1},
         "asset 'SYN1': unknown generator kind 'levy'"),
        ({"kind": "garch", "omega": 1e-6, "alpha": 0.05, "beta": 0.9, "length": 0, "seed": 1},
         "asset 'SYN1' (synth garch): length must be >= 1"),
        ({"kind": "arfima", "d": 0.2, "length": 0, "seed": 1},
         "asset 'SYN1' (synth arfima): length must be >= 1"),
        ({"kind": "garch", "omega": 1e-6, "alpha": -0.1, "beta": 0.9, "length": 65536,
          "seed": 1}, "asset 'SYN1' (synth garch): alpha and beta must be non-negative")])
    def test_bad_synth_specs_exit_2(self, tmp_path, caplog, synth, needle):
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "SYN1", "synth": synth}, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, needle)
        assert not (tmp_path / "out").exists()

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, overrides={
            "min_clusters": 50.0, "horizons": [1.0], "volatility_windows_s": [360.0],
            "n_grid_s": {"min": 120.0, "max": 480.0, "step": 120.0}}))
        assert (cfg.min_clusters, cfg.horizons, cfg.volatility_windows_s) == (50, (1,), (360,))
        assert cfg.n_grid_s == (120, 240, 360, 480)
        assert all(type(v) is int for v in (cfg.min_clusters, *cfg.horizons, *cfg.n_grid_s))

    @pytest.mark.parametrize("name", ["A,B", "x/y", "x\\y", "", "tab\t", 5, None])
    def test_bad_asset_name_exits_2(self, tmp_path, caplog, name):
        asset = dict(BASE_CONFIG["assets"][0], name=name)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, f"asset {name!r}: name must be a non-empty "
                                          f"printable string")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("hurst", "0.5"), ("hurst", False),
                                              ("price_scale", "1"), ("price_scale", True)])
    def test_non_number_synth_fields_exit_2(self, tmp_path, caplog, field, value):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"][field] = value
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog,
                        f"asset 'SYN1' synth {field}: expected a number, got {value!r}")

    @pytest.mark.parametrize("kind, scale", [("fbm", 0), ("fbm", -0.001), ("garch", -50),
                                             ("fbm", float("inf")), ("fbm", float("nan"))])
    def test_price_scale_not_finite_and_positive_exits_2(self, tmp_path, caplog, kind, scale):
        asset = {"name": "SYN1", "synth": {"kind": kind, "length": 65536, "seed": 1,
                                           "price_scale": scale}}
        asset["synth"].update({"hurst": 0.5} if kind == "fbm" else
                              {"omega": 1e-6, "alpha": 0.05, "beta": 0.9})
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, f"asset 'SYN1' synth price_scale: must be finite "
                                          f"and > 0, got {float(scale)!r}")
        assert not (tmp_path / "out").exists()

    def test_price_overflow_exits_2_naming_the_asset_without_a_warning(self, tmp_path, caplog):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"]["price_scale"] = 1e6
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _exits_2_naming(cfg_path, caplog, "asset 'SYN1' (synth fbm): price_scale "
                                              "1000000.0 takes prices outside (0, inf)")
        assert seen == []

    def test_negative_synth_seed_exits_2(self, tmp_path, caplog):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"]["seed"] = -1
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "asset 'SYN1' synth seed: must be >= 0, got -1")
        assert not (tmp_path / "out").exists()

    def test_non_finite_garch_omega_exits_2_naming_it(self, tmp_path, caplog):
        asset = {"name": "G", "synth": {"kind": "garch", "omega": float("nan"),
                                        "alpha": 0.05, "beta": 0.9, "length": 65536,
                                        "seed": 1}}
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "asset 'G' (synth garch): omega must be finite, "
                                          "got nan")

    def test_generator_error_names_the_asset(self, tmp_path, caplog):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"]["hurst"] = 1.5
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [asset, BASE_CONFIG["assets"][1]]})
        _exits_2_naming(cfg_path, caplog, "asset 'SYN1' (synth fbm): Hurst exponent")

    def test_year_start_not_first_of_month_exits_2(self, tmp_path, caplog):
        cfg_path = _write_config(tmp_path, overrides={"year_start": "2018-01-15"})
        _exits_2_naming(cfg_path, caplog, "year_start 2018-01-15 must be the first of a month")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seconds, rule", [
        (90, "is not a whole number of 60000000000 ns samples"),
        (60, "is under 2 samples of 60000000000 ns")])
    def test_n_grid_value_and_window_share_one_samples_rule(self, tmp_path, caplog,
                                                            seconds, rule):
        for key, value, what in [("n_grid_s", {"min": seconds, "max": seconds, "step": 1},
                                  "n grid value"),
                                 ("volatility_windows_s", [seconds], "volatility window")]:
            caplog.clear()
            _exits_2_naming(_write_config(tmp_path, overrides={key: value}), caplog,
                            f"{what} {seconds}s {rule}")

    def test_number_fields_take_json_integers(self, tmp_path):
        asset = json.loads(json.dumps(BASE_CONFIG["assets"][0]))
        asset["synth"]["price_scale"] = 2
        cfg = load_config(_write_config(tmp_path, overrides={
            "delta_s": 60, "assets": [asset, BASE_CONFIG["assets"][1]]}))
        assert (cfg.delta_s, cfg.assets[0].price_scale) == (60.0, 2.0)
        assert type(cfg.delta_s) is float and type(cfg.assets[0].price_scale) is float

    def test_threshold_m_accepts_integer(self, tmp_path):
        for value in (7, 7.0):
            cfg = load_config(_write_config(tmp_path, overrides={"threshold_m": value}))
            assert type(cfg.threshold_m) is int and cfg.threshold_for(4) == 7
        cfg_path = _write_config(tmp_path, overrides={"threshold_m": "n"})
        assert load_config(cfg_path).threshold_for(4) == 4


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # every run pays this import in its set-up time
    code = ("import sys; before = set(sys.modules); import entroport.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = Path(entroport.__file__).parents[1]
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={"PYTHONPATH": str(src)}).stdout.split()
    assert "entroport.cli" in added and "numpy" in added
    allowed = sys.stdlib_module_names | {"numpy", "entroport"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []
