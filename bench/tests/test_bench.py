"""Tests for the benchmark's own code: python3 -m pytest bench/tests"""

import gzip
import hashlib
import json
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# sha256 of tick_csv_bytes(7, 2, span_s=2 days); the stored reference outputs
# depend on the generator, so a change here means regenerating them
PINNED_TICKS_SHA256 = "a0c789a355b729ea275d9c9fe5d79a7554ca071c9e7f3fec36f636f0de98ce9d"


class TestTickGenerator:
    def test_byte_stable_per_seed(self):
        data = workloads.tick_csv_bytes(7, 2, span_s=2 * 86_400)
        assert data == workloads.tick_csv_bytes(7, 2, span_s=2 * 86_400)
        assert data != workloads.tick_csv_bytes(8, 2, span_s=2 * 86_400)
        assert data != workloads.tick_csv_bytes(7, 3, span_s=2 * 86_400)
        assert hashlib.sha256(data).hexdigest() == PINNED_TICKS_SHA256

    def test_format_duplicates_and_span(self):
        lines = workloads.tick_csv_bytes(0, 0).decode().splitlines()
        assert lines[0] == "timestamp_ns,price"
        stamps = [int(line.split(",")[0]) for line in lines[1:]]
        prices = [float(line.split(",")[1]) for line in lines[1:]]  # no 'np.float64('
        assert stamps == sorted(stamps) and min(prices) > 0
        dup_frac = 1 - len(set(stamps)) / len(stamps)
        assert 0.01 < dup_frac < 0.03
        year_end = datetime(2019, 1, 1, tzinfo=timezone.utc).timestamp() * 1e9
        assert stamps[0] == datetime(2018, 1, 1, tzinfo=timezone.utc).timestamp() * 1e9
        assert stamps[-1] > year_end + 86_400e9


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > g [2, 3]; root > b [5, 9]
        sp = [{"name": "root", "start": 0.0, "end": 10.0, "parent": None},
              {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
              {"name": "g", "start": 2.0, "end": 3.0, "parent": 1},
              {"name": "b", "start": 5.0, "end": 9.0, "parent": 0}]
        assert spans.self_times(sp) == [3.0, 2.0, 1.0, 4.0]
        assert spans.subtree(sp, 1) == [1, 2]
        assert sum(spans.self_times(sp)) == 10.0
        assert spans.unaccounted(sp, "root") == 0.0

    def test_tracer_records_parents_and_errors(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("m.inner", lambda x: x + 1)

        def outer_fn(x):
            if x < 0:
                raise ValueError(x)
            return inner(inner(x))

        outer = tracer.wrap("m.outer", outer_fn)
        assert outer(1) == 3
        with pytest.raises(ValueError):
            outer(-1)
        sp = [vars(s) for s in tracer.spans]
        assert [s["name"] for s in sp] == ["m.outer", "m.inner", "m.inner", "m.outer"]
        assert [s["parent"] for s in sp] == [None, 0, 0, None]
        assert [s["error"] for s in sp] == [None, None, None, "ValueError"]
        selfs = spans.self_times(sp)
        assert selfs[0] == pytest.approx(
            sp[0]["end"] - sp[0]["start"] - sum(s["end"] - s["start"] for s in sp[1:3]))


class TestSpeedScaling:
    @staticmethod
    def _sample(slowdown, run_s=2.0):
        k = calib.REFERENCE_S * slowdown
        return {"traced": False, "setup_s": 1.0 * slowdown, "run_s": run_s * slowdown,
                "cpu_s": run_s * slowdown, "cells": 100, "peak_rss_mb": 50.0,
                "kernel_s": [k * 0.9, k * 1.1]}

    def test_host_slowdown_cancels(self):
        quiet = run.end_to_end([self._sample(1.0)] * 3)
        slow = run.end_to_end([self._sample(1.0), self._sample(1.6), self._sample(1.3)])
        for name in ("setup_s", "run_s", "cpu_s", "cells_per_s", "peak_rss_mb"):
            assert slow[name] == pytest.approx(quiet[name])
        assert quiet["run_s"] == pytest.approx(2.0)
        assert quiet["cells_per_s"] == pytest.approx(50.0)

    def test_program_change_shows(self):
        before = run.end_to_end([self._sample(1.0, run_s=2.0)] * 3)
        after = run.end_to_end([self._sample(1.4, run_s=1.0)] * 3)
        assert after["run_s"] == pytest.approx(before["run_s"] / 2)

    def test_kernel_runs(self):
        assert 0 < calib.kernel_seconds(1) < 10


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished two-asset, one-horizon analyze run and its config."""
    from entroport.cli import main

    tmp = tmp_path_factory.mktemp("run")
    cfg = {
        "assets": [{"name": f"S{i}", "synth": {"kind": "fbm", "hurst": 0.5,
                                               "length": 65536, "seed": i}}
                   for i in (1, 2)],
        "delta_s": 60, "year_start": "2018-01-01",
        "n_grid_s": {"min": 120, "max": 480, "step": 120},
        "volatility_windows_s": [360], "horizons": [1],
        "output_dir": str(tmp / "out"),
    }
    (tmp / "config.json").write_text(json.dumps(cfg))
    assert main(["analyze", str(tmp / "config.json")]) == 0
    ref = tmp / "reference"
    ref.mkdir()
    for name in check.OUTPUT_CSVS:
        (ref / f"{name}.gz").write_bytes(gzip.compress((tmp / "out" / name).read_bytes()))
    return tmp, cfg


def _perturbed_copy(small_run, tmp_path, rel):
    """Copy of the run with its largest max_sharpe weight scaled by (1 + rel)."""
    run, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(run / "out", out)
    lines = (out / "weights.csv").read_text().splitlines()
    i = max((i for i, line in enumerate(lines) if line.startswith("max_sharpe,")),
            key=lambda i: float(lines[i].rsplit(",", 1)[1]))
    head, w = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(w) * (1 + rel)!r}"
    (out / "weights.csv").write_text("\n".join(lines) + "\n")
    return out


class TestOutputCheck:
    def test_clean_run_passes(self, small_run):
        run, cfg = small_run
        assert check.check_invariants(run / "out", cfg) == []
        assert check.compare_reference(run / "out", run / "reference") == []

    def test_weight_within_tolerance_is_accepted(self, small_run, tmp_path):
        out = _perturbed_copy(small_run, tmp_path, 1e-12)
        assert check.compare_reference(out, small_run[0] / "reference") == []
        assert check.check_invariants(out, small_run[1]) == []

    def test_weight_beyond_tolerance_is_rejected(self, small_run, tmp_path):
        out = _perturbed_copy(small_run, tmp_path, 1e-6)
        assert check.compare_reference(out, small_run[0] / "reference")
        problems = check.check_invariants(out, small_run[1])
        assert any("not on the simplex" in p for p in problems)

    def test_unlisted_output_is_rejected(self, small_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(small_run[0] / "out", out)
        (out / "extra.csv").write_text("x\n")
        assert any("manifest lists" in p for p in check.check_invariants(out, small_run[1]))
