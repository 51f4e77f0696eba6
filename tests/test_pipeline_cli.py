import argparse
import errno
import functools
import gzip
import hashlib
import inspect
import json
import logging
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entroport
from entroport import config, pipeline
from entroport.cli import build_parser, main
from entroport.config import MAX_N_GRID, load_config
from entroport.dma_cluster import PrefixTables, crossing_pass, entropy_curve, entropy_index
from entroport.errors import ConfigError, NoTangencyError
from entroport.pipeline import PipelineResult, load_asset_prices, run_pipeline
from entroport.returns_vol import linear_returns, rolling_volatility
from entroport.series import _parse_ticks_fast, month_start_ns, slice_horizon, whole_samples

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

    def test_insufficient_clusters_exits_4(self, tmp_path, caplog):
        # the first asset's first window in config order is the cell named
        cfg_path = _write_config(tmp_path, overrides={"min_clusters": 10 ** 9,
                                                      "volatility_windows_s": [720, 360]})
        _exits_naming(["analyze", cfg_path], 4, caplog,
                      "asset 'SYN1' has no valid n point at M=1, T=720s")

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

    def test_manifest_that_fails_to_write_is_not_left_behind(self, tmp_path, monkeypatch,
                                                              caplog):
        """A disk that fills mid-manifest exits 2 and leaves no manifest.json."""
        def dump_then_fill_the_disk(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:40])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(pipeline.json, "dump", dump_then_fill_the_disk)
        _exits_2_naming(_write_config(tmp_path), caplog, "No space left on device")
        assert (tmp_path / "out" / "weights.csv").is_file()
        assert not (tmp_path / "out" / "manifest.json").exists()

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

    # 2**47 samples or a year of 1 ns grid points exceed a 47-bit address space, so
    # numpy refuses them unallocated; 2**62 float64 samples exceed the largest size
    # numpy can address, which it reports as a ValueError
    @pytest.mark.parametrize("source, length, reason", [
        ("synth", 2 ** 47, "out of memory (Unable to allocate"),
        ("ticks", None, "out of memory (Unable to allocate"),
        ("synth", 2 ** 62, "array is too big")], ids=["synth", "ticks", "synth-2**62"])
    def test_out_of_memory_exits_2_naming_the_asset(self, tmp_path, caplog, source, length,
                                                     reason):
        if source == "synth":
            asset = {"name": "BIG", "synth": {"kind": "fbm", "hurst": 0.5,
                                              "length": length, "seed": 1}}
            where = "asset 'BIG' (synth fbm)"
        else:  # a year of 1 ns grid points
            (tmp_path / "two.csv").write_text(
                "timestamp_ns,price\n1514764800000000000,100.0\n1546300799000000000,101.0\n")
            asset = {"name": "BIG", "ticks": "two.csv"}
            where = f"asset 'BIG' ({tmp_path / 'two.csv'})"
        # a config needs two assets; this one loads after BIG, which fails first
        small = {"name": "SMALL", "synth": {"kind": "fbm", "hurst": 0.5, "length": 16,
                                            "seed": 2}}
        cfg_path = _write_config(tmp_path, overrides={"assets": [asset, small],
                                                      "delta_s": 1e-9})
        _exits_2_naming(cfg_path, caplog, f"{where}: {reason}")
        assert not (tmp_path / "out").exists()

    def test_n_longer_than_the_source_warns_series_too_short(self, tmp_path):
        # 50,000 samples outrun January's 44,634 volatility values; n = 2 runs
        cfg_path = _write_config(tmp_path, overrides={
            "n_grid_s": {"min": 120, "max": 3_000_000, "step": 2_999_880}})
        result = run_pipeline(load_config(cfg_path), config_bytes=b"")
        assert result.warnings == [f"{name} M=1 T=360s n=50000: series too short"
                                   for name in ("SYN1", "SYN2")]
        assert all(list(by_n) == [2] for by_n in result.curves.values())

    def test_window_longer_than_a_horizon_exits_2(self, tmp_path, caplog):
        # January holds 44,640 prices, so 44,639 returns
        cfg_path = _write_config(tmp_path, overrides={"volatility_windows_s": [44_640 * 60]})
        _exits_2_naming(cfg_path, caplog, "window (44640) longer than series (44639)")

    def test_monthly_horizon_with_one_price_exits_2(self, tmp_path, caplog):
        # at 28-day steps from 2018-01-01, February holds only 2018-02-26
        days = 28 * 86400
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": f"SYN{seed}", "synth": {"kind": "fbm", "hurst": 0.5,
                                                        "length": 16, "seed": seed}}
                       for seed in (1, 2)],
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

    def _exits_2_naming_tick_file(self, tmp_path, caplog, data, needle, name="x.csv"):
        """analyze with asset X read from a tick file of `data` exits 2 naming the file."""
        (tmp_path / name).write_bytes(data)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [BASE_CONFIG["assets"][0], {"name": "X", "ticks": name}]})
        _exits_2_naming(cfg_path, caplog, f"asset 'X' ({tmp_path / name}): {needle}")
        assert not (tmp_path / "out").exists()

    # the bad row follows a good tick on line 2, so the record that fails starts on line 3
    @pytest.mark.parametrize("row, needle", [
        (b"1,2,3", "line 3: expected 2 fields, got 3"),
        (b"1", "line 3: expected 2 fields, got 1"),
        (b"x,1.0", "line 3: invalid literal for int()"),
        (b"1,abc", "line 3: could not convert string to float: 'abc'"),
        (b"1,-inf", "line 3: non-positive or non-finite price -inf"),
        (b"1,nan", "line 3: non-positive or non-finite price nan"),
        (b"1,0", "line 3: non-positive or non-finite price 0"),
        (b"1,-5", "line 3: non-positive or non-finite price -5"),
        (b"1,1.0 # note", "line 3: could not convert string to float: '1.0 # note'"),
        (b"1,1\x1c", "line 3: could not convert string to float"),
        (b'1,"' + b"9" * 200_000 + b'"', "line 3: field larger than field limit"),
        (b'"1\n2",3', "line 3: invalid literal for int()"),
    ], ids=["three-fields", "one-field", "timestamp", "price", "-inf", "nan", "zero",
            "negative", "comment-tail", "numpy-space", "oversized-field", "quoted-newline"])
    def test_malformed_tick_row_names_file_and_line(self, tmp_path, caplog, row, needle):
        self._exits_2_naming_tick_file(
            tmp_path, caplog, b"timestamp_ns,price\n1514764800000000000,100.0\n" + row + b"\n",
            needle)

    @pytest.mark.parametrize("data, needle", [
        (b"", "tick source contains no records"),
        (b"timestamp_ns,price\n", "tick source contains no records"),
        (b"price,timestamp_ns\n100.0,1514764800000000000\n",
         "line 1: bad header ['price', 'timestamp_ns']"),
        (b"timestamp_ns,price,volume\n1514764800000000000,100.0,7\n",
         "line 1: bad header ['timestamp_ns', 'price', 'volume']"),
        (b"\n1514764800000000000,100.0\n", "line 1: bad header []"),
        (b"timestamp_ns,pr\xffice\n1514764800000000000,100.0\n", "line 1: not valid UTF-8"),
        (b"timestamp_ns,price\r\n1514764800000000000,100.0\r\n1,x\r\n",
         "line 3: could not convert string to float: 'x'"),
    ], ids=["empty", "header-only", "swapped-header", "extra-column", "blank-header",
            "non-utf8-header", "crlf"])
    def test_malformed_tick_file_names_file_and_line(self, tmp_path, caplog, data, needle):
        self._exits_2_naming_tick_file(tmp_path, caplog, data, needle)

    def test_gzipped_tick_file_exits_2(self, tmp_path, caplog):
        """numpy would decompress x.csv.gz; a run reads its bytes as they are."""
        data = gzip.compress(b"timestamp_ns,price\n1514764800000000000,100.0\n", mtime=0)
        self._exits_2_naming_tick_file(tmp_path, caplog, data, "line 1: not valid UTF-8",
                                       name="x.csv.gz")

    def test_synth_prices_read_as_ticks_give_the_same_bytes(self, tmp_path):
        """Two synth specs' prices, written as tick files at year_start + k*delta with
        repr prices, run to the same five CSVs as the specs; the manifests differ only
        in config_sha256."""
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        synths = [
            {"name": "FBM", "synth": {"kind": "fbm", "hurst": 0.5, "length": 8192, "seed": 1}},
            {"name": "GARCH", "synth": {"kind": "garch", "omega": 1e-6, "alpha": 0.05,
                                        "beta": 0.9, "length": 8192, "seed": 4}}]
        common = {"delta_s": 600, "n_grid_s": {"min": 1200, "max": 6000, "step": 1200},
                  "volatility_windows_s": [3600, 7200], "horizons": [1]}
        synth_cfg = _write_config(tmp_path, name="synth.json", overrides=dict(
            common, assets=synths, output_dir=str(tmp_path / "synth")))
        ticks = []
        for asset in load_config(synth_cfg).assets:
            path = tmp_path / f"{asset.name}.csv"
            data = ("timestamp_ns,price\n" + "".join(
                f"{t0 + k * 600 * 10 ** 9},{p!r}\n"
                for k, p in enumerate(asset.generator.prices().tolist()))).encode()
            path.write_bytes(data)
            assert _parse_ticks_fast(path, data) is not None  # numpy's reader, not the loop
            ticks.append({"name": asset.name, "ticks": path.name})
        tick_cfg = _write_config(tmp_path, name="ticks.json", overrides=dict(
            common, assets=ticks, output_dir=str(tmp_path / "ticks")))
        runs = []
        for cfg_path in (synth_cfg, tick_cfg):
            assert main(["analyze", str(cfg_path)]) == 0
            out = tmp_path / cfg_path.stem
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["config_sha256"]
            runs.append(([(out / name).read_bytes() for name in OUTPUTS], manifest))
        assert runs[0][1]["n_cells"] == 4
        assert runs[0] == runs[1]

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

    def test_zero_cluster_entropy_index_exits_2_naming_the_cell(self, tmp_path, caplog):
        """A price cycling 100, 101, 200, 202 has returns a, b, a, c, so its 2-sample
        volatility runs x, x, y, y and every cluster lasts 2: I = 0."""
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        walk = 100 + np.cumsum(np.random.default_rng(5).choice([-0.01, 0.01], 44_700))
        cycle = (100.0, 101.0, 200.0, 202.0)
        for name, prices in (("alt.csv", [cycle[i % 4] for i in range(44_700)]),
                             ("rw.csv", walk.tolist())):
            rows = "".join(f"{t0 + i * 60 * 10 ** 9},{p!r}\n" for i, p in enumerate(prices))
            (tmp_path / name).write_text("timestamp_ns,price\n" + rows)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "ALT", "ticks": "alt.csv"}, {"name": "RW", "ticks": "rw.csv"}],
            "n_grid_s": {"min": 120, "max": 120, "step": 120}, "volatility_windows_s": [120]})
        _exits_2_naming(cfg_path, caplog, "M=1 T=120s: the cluster-entropy index must be "
                                          "finite and positive, got asset 'ALT' I=0.0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["expanding", "monthly"])
    def test_tick_grids_with_different_starts_share_one_grid(self, tmp_path, caplog, mode):
        """First ticks 1 s apart: both assets take the year_start grid from its second point."""
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        for seed, (name, first) in enumerate((("a.csv", t0), ("b.csv", t0 + 10 ** 9))):
            walk = 100 * np.exp(np.cumsum(np.random.default_rng(seed).standard_normal(44_700))
                                * 1e-3)
            rows = "".join(f"{first + i * 60 * 10 ** 9},{p:.6f}\n"
                           for i, p in enumerate(walk.tolist()))
            (tmp_path / name).write_text("timestamp_ns,price\n" + rows)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}],
            "horizon_mode": mode})
        with caplog.at_level(logging.INFO):
            assert main(["analyze", str(cfg_path)]) == 0
        # A covers grid points 0..44,699 and B, from 00:01, 1..44,699
        assert "loaded 2 assets, 44699 samples each" in caplog.text
        assert (tmp_path / "out" / "manifest.json").is_file()

    def test_assets_sharing_no_grid_point_exit_2_naming_each_range(self, tmp_path, caplog):
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        for name, first in (("a.csv", t0), ("b.csv", t0 + (3 * 3600 + 17) * 10 ** 9)):
            rows = "".join(f"{first + i * 60 * 10 ** 9},{100.0 + i}\n" for i in range(50))
            (tmp_path / name).write_text("timestamp_ns,price\n" + rows)
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}]})
        _exits_2_naming(cfg_path, caplog, "the assets share no grid point: asset 'A' covers "
                        "2018-01-01T00:00:00Z to 2018-01-01T00:49:00Z, asset 'B' covers "
                        "2018-01-01T03:01:00Z to 2018-01-01T03:49:00Z")
        assert not (tmp_path / "out").exists()

    def test_tick_file_spanning_no_grid_point_exits_2(self, tmp_path, caplog):
        # ticks at 00:00:10 and 00:00:50 hold no point of the 60 s grid from midnight
        (tmp_path / "b.csv").write_text(
            "timestamp_ns,price\n1514764810000000000,100.0\n1514764850000000000,101.0\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [BASE_CONFIG["assets"][0], {"name": "B", "ticks": "b.csv"}]})
        # 65,536 one-minute samples from 2018-01-01 end on 2018-02-15 at 12:15
        _exits_2_naming(cfg_path, caplog, "the assets share no grid point: asset 'SYN1' covers "
                        "2018-01-01T00:00:00Z to 2018-02-15T12:15:00Z, asset 'B' covers none")

    @pytest.mark.parametrize("mode", ["expanding", "monthly"])
    def test_horizon_past_the_shortest_asset_exits_2_naming_it(self, tmp_path, caplog, mode):
        t0 = 1514764800 * 10 ** 9  # 2018-01-01 UTC
        # previous-tick prices fill the grid between two ticks; B ends a month before A
        for name, last in (("a.csv", 1520208000), ("b.csv", 1518307140)):  # 03-05, 02-10 23:59
            (tmp_path / name).write_text(f"timestamp_ns,price\n{t0},100.0\n"
                                         f"{last * 10 ** 9},101.0\n")
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}],
            "horizons": [1, 2], "horizon_mode": mode})
        _exits_2_naming(cfg_path, caplog,
                        f"asset 'B' ({tmp_path / 'b.csv'}), which ends the grid every asset "
                        "covers: the grid ends at 2018-02-10T23:59:00Z, before the 2-month "
                        "horizon boundary 2018-03-01T00:00:00Z")
        assert not (tmp_path / "out").exists()


# 2^17 one-minute samples span January and February 2018
TWO_MONTHS = [{"name": f"SYN{seed}", "synth": {"kind": "fbm", "hurst": 0.5,
                                               "length": 2 ** 17, "seed": seed}}
              for seed in (1, 2)]


@pytest.mark.parametrize("mode", ["expanding", "monthly"])
def test_multi_horizon_indices_match_per_horizon_oracle(tmp_path, mode):
    """Cutting horizons out of one pass per series matches a pass over each slice."""
    cfg = load_config(_write_config(tmp_path, overrides={
        "assets": TWO_MONTHS, "horizons": [1, 2], "horizon_mode": mode}))
    run_pipeline(cfg, config_bytes=b"")
    _, rows = _read_rows(tmp_path / "out" / "indices_by_n.csv")
    got = {(a, int(m), int(t_s), int(n)): value for a, m, t_s, n, value in rows}

    expected = {}
    for asset in cfg.assets:
        first, prices = load_asset_prices(asset, cfg)
        start_ns = month_start_ns(cfg.year_start, 0) + first * cfg.delta_ns
        for m in cfg.horizons:
            span = slice_horizon(start_ns, cfg.delta_ns, len(prices), cfg.year_start, m,
                                 mode=mode)
            rets = linear_returns(prices[span])
            for t_s in cfg.volatility_windows_s:
                w = whole_samples(t_s, cfg.delta_ns, "volatility window")
                y = rolling_volatility(rets, w)
                for n in cfg.n_grid_samples():
                    dist, = crossing_pass(PrefixTables(y), n).distributions(
                        [(0, len(y))], cfg.min_clusters)
                    if isinstance(dist, Exception):
                        raise dist
                    _, counts = dist
                    i_n = entropy_index(entropy_curve(counts))
                    expected[(asset.name, m, t_s, n)] = repr(i_n)
    assert got == expected


def _in_order(values) -> float:
    """0.0 + v0 + v1 + ..., rounded left to right."""
    return functools.reduce(operator.add, values, 0.0)


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_written_indices_are_left_to_right_sums_of_written_rows(tmp_path, aggregation):
    """Each I_n is its curve's S summed over every bin, and each I its cell's I_n in n order.

    Every file writes repr, so the sums of the parsed rows must match bit for bit.
    """
    cfg_path = _write_config(tmp_path, overrides={
        "assets": TWO_MONTHS, "horizons": [1, 2], "volatility_windows_s": [360, 720],
        "aggregation": aggregation})
    assert main(["analyze", str(cfg_path)]) == 0
    out = tmp_path / "out"
    curves = {}
    for *block, _, s in _read_rows(out / "entropy_curves.csv")[1]:
        curves.setdefault(tuple(block), []).append(float(s))
    by_n = {tuple(block): float(i_n) for *block, i_n in _read_rows(out / "indices_by_n.csv")[1]}
    assert by_n.keys() == curves.keys()
    assert {k: _in_order(v) for k, v in curves.items()} == by_n
    cells = {}
    for (*cell, n), i_n in sorted(by_n.items(), key=lambda kv: int(kv[0][3])):
        cells.setdefault(tuple(cell), []).append(i_n)
    got = {tuple(cell): float(i) for *cell, i in _read_rows(out / "indices_aggregated.csv")[1]}
    assert got == {cell: _in_order(v) / (len(v) if aggregation == "mean" else 1)
                   for cell, v in cells.items()}


def test_written_weights_and_diagnostics_follow_from_written_indices(tmp_path):
    """cluster_entropy_high is I / sum(I) and cluster_entropy_low (1/I) / sum(1/I) of the
    cell's written I, and each diagnostics row is weight_entropy and kl_cross_entropy
    (against 1/N) of its group's written weights.

    Assets are listed out of name order: the weights are formed in config order.
    """
    assets = [{"name": name, "synth": {"kind": "fbm", "hurst": 0.5,
                                       "length": 65536, "seed": seed}}
              for name, seed in (("SYN3", 3), ("SYN1", 1), ("SYN2", 2))]
    cfg_path = _write_config(tmp_path, overrides={"assets": assets,
                                                  "volatility_windows_s": [360, 720]})
    assert main(["analyze", str(cfg_path)]) == 0
    out = tmp_path / "out"
    names = [a["name"] for a in assets]
    aggregated = {(m, t_s, a): float(i)
                  for a, m, t_s, i in _read_rows(out / "indices_aggregated.csv")[1]}
    written: dict[tuple[str, str, str], dict[str, str]] = {}
    for method, m, t_s, asset, w in _read_rows(out / "weights.csv")[1]:
        written.setdefault((method, m, t_s), {})[asset] = w
    groups = {(m, t_s) for m, t_s, _ in aggregated}
    assert len(groups) == 2
    for m, t_s in groups:
        indices = np.array([aggregated[(m, t_s, a)] for a in names])
        for method, w in (("cluster_entropy_high", indices / indices.sum()),
                          ("cluster_entropy_low", (1.0 / indices) / (1.0 / indices).sum())):
            assert written[(method, m, t_s)] == {a: repr(float(x)) for a, x in zip(names, w)}

    diagnostics = _read_rows(out / "diagnostics.csv")[1]
    assert {tuple(row[:3]) for row in diagnostics} == set(written)
    for method, m, t_s, went, kl in diagnostics:
        w = np.array([float(written[(method, m, t_s)][a]) for a in names])
        assert [went, kl] == [repr(entroport.weight_entropy(w)),
                              repr(entroport.kl_cross_entropy(w, entroport.naive_weights(3)))]


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
    # digests of the outputs of per-cell histograms, before the running bincount;
    # indices_by_n.csv's since I(n) is one sum over every bin
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("manifest.json", "indices_by_n.csv", "entropy_curves.csv")}
    assert digests == {
        "manifest.json": "f08f4d5bf0fa021d352df6a9f7cc83ea553270b13fa2787a359e377f703b99f8",
        "indices_by_n.csv": "608d5742489e7bb9b486c15c90a735073ee2250f389566dcc9e6589e7cd0f22a",
        "entropy_curves.csv": "0c795a339c3403c878cc61836e81a5d19fd99f4ef88e3b9156a204670cf80c01",
    }
    passes = [r.getMessage() for r in caplog.records
              if "crossings; cells" in r.getMessage()]
    assert len(passes) == 2 * 5  # one per (asset, window, n)
    assert any(m.startswith("SYN1 T=10800s n=802: ") and
               m.endswith("cells 2 kept, 1 dropped, 1 too short") for m in passes)


OUTPUTS = ("entropy_curves.csv", "indices_by_n.csv", "indices_aggregated.csv", "weights.csv",
           "diagnostics.csv")


def test_config_order_of_horizons_and_windows_changes_no_byte(tmp_path):
    """Results are keyed by cell and written sorted, so listing the horizons and the
    windows in another order writes the same CSVs, warnings and cell count."""
    runs = []
    for order in (1, -1):
        out = tmp_path / f"out{order}"
        run_pipeline(load_config(_write_config(tmp_path, name=f"{order}.json", overrides=dict(
            EDGE_CONFIG, horizons=EDGE_CONFIG["horizons"][::order],
            volatility_windows_s=[10800, 21600][::order], output_dir=str(out)))),
            config_bytes=b"")
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(({name: (out / name).read_bytes() for name in OUTPUTS},
                     manifest["warnings"], manifest["n_cells"]))
    warnings = runs[0][1]
    assert any("dropped" in w for w in warnings) and any("too short" in w for w in warnings)
    assert runs[0] == runs[1]


def test_returned_tables_are_the_written_ones(tmp_path):
    """run_pipeline returns the tables it wrote: each written field is its value's repr."""
    cfg = load_config(_write_config(tmp_path, overrides=dict(
        EDGE_CONFIG, volatility_windows_s=[10800, 21600])))
    result = run_pipeline(cfg, config_bytes=b"")
    out = tmp_path / "out"
    assert len(result.cells) == len(cfg.assets) * len(cfg.horizons) * 2 == 16

    def cell(asset, m, t_s):
        return asset, int(m), int(t_s)

    assert {cell(*key): i for *key, i in _read_rows(out / "indices_aggregated.csv")[1]} == {
        key: repr(float(i)) for key, i in result.cells.items()}
    by_n, curves = {}, {}
    for *key, n, i_n in _read_rows(out / "indices_by_n.csv")[1]:
        by_n.setdefault(cell(*key), {})[int(n)] = i_n
    assert by_n == {key: {n: repr(float(i_n)) for n, i_n in v.items()}
                    for key, v in result.indices.items()}
    assert all(list(v) == sorted(v) for v in result.indices.values())  # n-grid order
    for *key, n, tau, s in _read_rows(out / "entropy_curves.csv")[1]:
        curves.setdefault(cell(*key), {}).setdefault(int(n), []).append((int(tau), s))
    assert curves == {key: {n: list(zip(taus.tolist(), map(repr, s.tolist())))
                            for n, (taus, s) in v.items()} for key, v in result.curves.items()}
    assert [[method, str(m), str(t_s), asset, repr(w)] for method, m, t_s, asset, w in
            sorted(result.weights)] == _read_rows(out / "weights.csv")[1]


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
    _, prices = load_asset_prices(cfg.assets[0], cfg)
    y = rolling_volatility(linear_returns(prices),
                           whole_samples(360, cfg.delta_ns, "volatility window"))
    n = min(cfg.n_grid_samples())
    assert np.any(y[n - 1:] == np.convolve(y, np.full(n, 1.0 / n), mode="valid"))
    run_pipeline(cfg, config_bytes=b"")
    out = tmp_path / "out"
    # digests of the outputs before crossings were read from boolean flips;
    # indices_by_n.csv's since I(n) is one sum over every bin
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("indices_by_n.csv", "entropy_curves.csv")}
    assert digests == {
        "indices_by_n.csv": "332fb43abe6ecfa37d44bbae9f8880b770781e15577e4ef53b8603e865b3f2ca",
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


def test_float_sources_keep_their_bytes(tmp_path):
    """Certified signs give the crossings of the full np.convolve, so the same bytes."""
    run_pipeline(load_config(_write_config(tmp_path, overrides=FLOAT_SOURCE_CONFIG)),
                 config_bytes=b"")
    # digests of the outputs while every pass called np.convolve in full;
    # indices_by_n.csv's since I(n) is one sum over every bin
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("indices_by_n.csv", "entropy_curves.csv")} == {
        "indices_by_n.csv": "bf2a9b5a9b3119121cf8741ccf4c1253fd0b7cb8756c0f4aa67ed1617f297353",
        "entropy_curves.csv": "edf0e000987747545fb822f6215b50c622df370f0282ca4c1d698b1e86565b22"}


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
    tables = PrefixTables(values)
    result = PipelineResult()
    pipeline._add_n([("A", 1, 360)], [(0, len(values))], tables, 8,
                    load_config(_write_config(tmp_path, overrides={"min_clusters": 1})), result)
    assert 8 in result.curves[("A", 1, 360)]
    assert re.match(rf"A T=360s n=8: full convolve \({reason}\); ",
                    caplog.records[-1].getMessage())


def test_curve_rows_equal_per_row_format(tmp_path):
    curve = (np.array([1, 2, 7, 10 ** 6]), np.array([0.0, -0.0, 0.1 + 0.2, 1e-300]))
    other = (np.array([4]), np.array([123456789.125]))
    curves = {("B", 2, 360): {5: curve, 3: other}, ("A", 12, 60): {3: other}}
    result = PipelineResult()
    result.curves.update(curves)
    cfg = load_config(_write_config(tmp_path))
    pipeline._write_outputs(result, cfg, b"")
    per_row = "asset,horizon,T_s,n,tau,S\n" + "".join(
        f"{asset},{m},{t_s},{n},{tau},{repr(float(s))}\n"
        for asset, m, t_s in sorted(curves) for n in sorted(curves[asset, m, t_s])
        for tau, s in zip(*(a.tolist() for a in curves[asset, m, t_s][n])))
    assert (tmp_path / "out" / "entropy_curves.csv").read_text() == per_row


def _count_max_sharpe_calls(monkeypatch, solve):
    calls = []

    def counted(mu, sigma):
        calls.append(mu)
        return solve(mu, sigma)

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
    def no_tangency(mu, sigma):
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


def test_readme_plotting_recipe_reads_a_finished_run(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    recipe = readme.split("The pipeline ends at these files", 1)[1]
    recipe = recipe.split("```python\n", 1)[1].split("```", 1)[0]
    assert main(["analyze", str(_write_config(tmp_path))]) == 0
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(recipe, names)
    # one curve per (asset, M, T), each in file order: by n, then tau
    assert sorted(names["curves"]) == [("SYN1", 1, 360), ("SYN2", 1, 360)]
    for rows in names["curves"].values():
        assert rows and rows == sorted(rows, key=lambda r: r[:2])
    _, rows = _read_rows(tmp_path / "out" / "weights.csv")
    assert len(names["weights"]) == len(rows)
    keys = [(r["method"], int(r["T_s"]), int(r["horizon"]), r["asset"])
            for r in names["weights"]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("command", ["figures", "synth"])
def test_removed_command_is_not_a_subcommand(tmp_path, command):
    # the pipeline ends at its run CSVs, and a synthetic asset enters a run as a
    # config synth entry; README shows how to reshape the CSVs for plotting
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path)])
    assert exc.value.code == 2


def test_readme_states_every_choice_and_only_real_subcommands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    defaults = inspect.signature(config.PipelineConfig).parameters
    for key, names in config.CHOICES.items():  # the default first, as README says
        assert defaults[key].default == names[0], key
        assert f"- `{key}`: " + " or ".join(f"`{v}`" for v in names) in readme, key
    # the choice list names exactly these keys, and its sentence counts them
    intro, choices = re.search(r"\n(\w+) keys each choose one of two names;(?:.*\n)+?"
                               r"((?:- `\w+`: .*\n(?: .*\n)*)+)", readme).groups()
    assert re.findall(r"^- `(\w+)`: ", choices, re.M) == list(config.CHOICES)
    assert intro == ("One", "Two", "Three", "Four", "Five")[len(config.CHOICES) - 1]
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(re.findall(r"\bentroport ([a-z]\w*)", readme)) <= set(sub.choices)


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

    def test_delta_of_2_63_ns_or_more_exits_2(self, tmp_path, caplog):
        """From 1678, year_start + delta fits int64 though delta does not."""
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(
                "timestamp_ns,price\n0,100.0\n1000000000000000000,101.0\n")
        span = 18_600_000_000  # 2 delta
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}],
            "year_start": "1678-01-01", "delta_s": 9.3e9,
            "n_grid_s": {"min": span, "max": span, "step": 1}, "volatility_windows_s": [span]})
        _exits_2_naming(cfg_path, caplog, "delta_s 9300000000.0 must be under 2**63 ns")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("volatility_windows_s", []), ("horizons", []),
        ("n_grid_s", {"min": 480, "max": 120, "step": 120}),
        ("n_grid_s", {"min": 120, "max": 480, "step": 0})])
    def test_empty_sweep_or_boolean_threshold_exits_2(self, tmp_path, caplog, key, value):
        _exits_2_naming(_write_config(tmp_path, overrides={key: value}), caplog, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, needle", [
        ({"min": -1e300, "max": 480, "step": 120}, "n_grid_s.min: must be >= 1, got -1e+300"),
        ({"min": 0, "max": 480, "step": 120}, "n_grid_s.min: must be >= 1, got 0"),
        ({"min": 120, "max": 1e300, "step": 120}, f"n_grid_s: more than {MAX_N_GRID} values"),
        ({"min": 120, "max": 120 + MAX_N_GRID * 60, "step": 60},
         f"n_grid_s: more than {MAX_N_GRID} values")])
    def test_n_grid_out_of_bounds_exits_2_before_it_is_built(self, tmp_path, caplog, grid,
                                                             needle):
        _exits_2_naming(_write_config(tmp_path, overrides={"n_grid_s": grid}), caplog, needle)
        assert not (tmp_path / "out").exists()

    def test_n_grid_of_the_most_values_loads(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, overrides={
            "n_grid_s": {"min": 120, "max": 120 + (MAX_N_GRID - 1) * 60, "step": 60}}))
        assert len(cfg.n_grid_s) == MAX_N_GRID

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
        ({"entropy_estimator": "surprisal"}, "top level: unknown key(s) 'entropy_estimator'"),
        ({"entropy_source": "return"}, "top level: unknown key(s) 'entropy_source'"),
        ({"aggregation": "max"}, "unknown aggregation 'max'"),
        ({"horizon_mode": "weekly"}, "unknown horizon_mode 'weekly'"),
        ({"return_kind": "linear"}, "unknown return_kind 'linear'"),
        ({"return_kind": "linear", "aggregation": "max"}, "unknown aggregation 'max'"),
        ({"threshold_m": "n"}, "top level: unknown key(s) 'threshold_m'"),
        ({"min_clusters": 0}, "min_clusters must be >= 1"),
        ({"assets": []}, "at least 2 assets are required, got 0"),
        ({"assets": 5}, "bad config: TypeError(\"'int' object is not iterable\")"),
        ({"output_dir": "o\0ut"}, "output_dir 'o\\x00ut': contains a NUL byte")])
    def test_bad_config_values_exit_2(self, tmp_path, caplog, overrides, needle):
        _exits_2_naming(_write_config(tmp_path, overrides=overrides), caplog, needle)
        assert not (tmp_path / "out").exists()

    def test_one_asset_exits_2_before_any_data_loads(self, tmp_path, caplog):
        # the tick file is missing, so loading it would exit 3
        cfg_path = _write_config(tmp_path, overrides={
            "assets": [{"name": "A", "ticks": "missing.csv"}]})
        _exits_2_naming(cfg_path, caplog, "at least 2 assets are required, got 1")
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
          "seed": 1}, "asset 'SYN1' (synth garch): alpha and beta must be non-negative"),
        ({"kind": "fbm", "length": 1024, "seed": 1}, "asset 'SYN1': synth spec missing 'hurst'"),
        ({"kind": "garch", "omega": 1e-6, "alpha": 0.05, "length": 1024, "seed": 1},
         "asset 'SYN1': synth spec missing 'beta'"),
        ({"kind": "fbm", "hurst": 0.5, "d": 0.3, "length": 1024, "seed": 1},
         "asset 'SYN1' synth: unknown key(s) 'd'"),
        ({"kind": "fbm", "hurst": 0.5, "length": 2 ** 28, "seed": 1},
         "for 268435456 samples of 'SYN1' do not fit int64 nanoseconds")])
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

    @pytest.mark.parametrize("name", ["A,B", '"X', 'A"B', "x/y", "x\\y", "", "tab\t", 5, None])
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

    def test_overflowing_garch_exits_2_naming_the_asset(self, tmp_path, caplog):
        asset = {"name": "G", "synth": {"kind": "garch", "omega": 1e307, "alpha": 0.05,
                                        "beta": 0.9, "length": 100, "seed": 3}}
        small = {"name": "F", "synth": {"kind": "fbm", "hurst": 0.5, "length": 1024,
                                        "seed": 1}}
        cfg_path = _write_config(tmp_path, overrides={"assets": [small, asset]})
        _exits_2_naming(cfg_path, caplog, "asset 'G' (synth garch)")
        assert not (tmp_path / "out").exists()

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
        scale = cfg.assets[0].generator.price_scale
        assert (cfg.delta_s, scale) == (60.0, 2.0)
        assert type(cfg.delta_s) is float and type(scale) is float


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
