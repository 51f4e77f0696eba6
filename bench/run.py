"""entroport benchmark: seeded sweep workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload synth_expanding --seed 0 --seconds 35 --trace 0

Each sample is a fresh interpreter (bench/child.py) that imports entroport,
loads the workload config and runs `entroport analyze` once, as a user of the
CLI does. Samples run one after another, with ENTROPORT_WORKERS unset, until
--seconds is spent. Every sample's outputs are checked (check.py) and must be
byte-identical to the first sample's. --trace 0 reports the end-to-end
metrics; every time among them is the median over samples of the sample's
time scaled by calib.REFERENCE_S over the reference kernel's time in that
sample (calib.py), so a slow phase of a shared host cancels. --trace 1
alternates traced and untraced samples and reports the per-layer metrics
(spans.py). Metric names and units come from BENCHMARK.json.
The last line of standard output is the JSON result; a record with the
samples, output sha256s and environment goes under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import check
import spans
from workloads import WORKLOADS, inputs_digest, prepare_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
#: the seed whose inputs and outputs are stored under reference/
RECORDED_SEED = 0
#: every sample must end within this many seconds of the run's start
HARD_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ENTROPORT_WORKERS")


def run_sample(config: Path, run_dir: Path, traced: bool, deadline: float) -> dict:
    """One child process; returns its timings plus any problems seen."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path, spans_path = run_dir / "result.json", run_dir / "spans.json"
    result_path.unlink(missing_ok=True)
    spans_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(config), str(result_path)]
    if traced:
        cmd.append(str(spans_path))
    env = {k: v for k, v in os.environ.items() if k != "ENTROPORT_WORKERS"}
    started = time.monotonic()
    with open(run_dir / "child.log", "wb") as log:
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - started))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    sample = {"traced": traced, "wall_s": time.monotonic() - started, "problems": []}
    if code != 0 or not result_path.exists():
        tail = (run_dir / "child.log").read_text(errors="replace")[-2000:]
        sample["problems"].append(f"child exited {code}: {tail}")
        return sample
    sample.update(json.loads(result_path.read_text()))
    if sample["exit_code"] != 0:
        sample["problems"].append(f"analyze exited {sample['exit_code']}")
        return sample
    cfg = json.loads(config.read_text())
    sample["problems"] += check.check_invariants(out, cfg)
    sample["sha256"] = check.sha256_outputs(out)
    sample["cells"] = len(check.read_rows(out / "indices_aggregated.csv"))
    if traced:
        sample["trace"] = json.loads(spans_path.read_text())
        sample["layers"] = layer_metrics(sample, out, cfg)
        gap = spans.unaccounted(sample["trace"]["spans"], "pipeline.run_pipeline")
        if abs(gap) > 1e-6:
            sample["problems"].append(f"self times miss {gap:.3g} s of pipeline.run_pipeline")
    return sample


def layer_metrics(sample: dict, out: Path, cfg: dict) -> dict:
    """Per-layer numbers of one traced sample (times in s, inclusive of callees)."""
    trace = sample["trace"]
    sp, counts = trace["spans"], trace["counts"]
    total = lambda names, run="analyze": spans.total(sp, names, run)  # noqa: E731
    calls = lambda name, error=None: spans.calls(sp, name, error=error)  # noqa: E731
    selfs = spans.self_times(sp)
    roots = [i for i, s in enumerate(sp)
             if s["name"] == "pipeline.run_pipeline" and s["run"] == "analyze"]
    kept = len(check.read_rows(out / "indices_by_n.csv"))
    attempted = sample["cells"] * len(check.n_grid_samples(cfg))
    parse_s = total("series.parse_ticks")
    m = {
        "series.parse_ticks.s": parse_s,
        "series.ticks": counts.get("series.ticks", 0),
        "series.ticks_per_s": counts.get("series.ticks", 0) / parse_s if parse_s else 0.0,
        "series.resample.s": total("series.resample"),
        "series.slice_horizon.s": total("series.slice_horizon"),
        "series.slice_horizon.calls": calls("series.slice_horizon"),
        "synth.generate.s": total("synth.generate"),
        "synth.samples": counts.get("synth.samples", 0),
        "entroport.import_s": sample["import_s"],
        "returns_vol.returns.s": total(("returns_vol.linear_returns",
                                        "returns_vol.log_returns")),
        "returns_vol.rolling_volatility.s": total("returns_vol.rolling_volatility"),
        "returns_vol.rolling_volatility.calls": calls("returns_vol.rolling_volatility"),
        "returns_vol.vol_samples": counts.get("returns_vol.vol_samples", 0),
        "dma_cluster.samples_scanned": counts.get("dma_cluster.samples_scanned", 0),
        "dma_cluster.clusters": counts.get("dma_cluster.clusters", 0),
        "dma_cluster.bins": counts.get("dma_cluster.bins", 0),
        "dma_cluster.dropped_n": attempted - kept,
        "dma_cluster.kept_frac": kept / attempted if attempted else 0.0,
        "portfolio.max_sharpe.skipped": calls("portfolio.max_sharpe_weights",
                                              error="NoTangencyError"),
        "portfolio.max_sharpe.ridge_events": trace["ridge_events"],
        "portfolio.diagnostics.s": total(("portfolio.weight_entropy",
                                          "portfolio.kl_cross_entropy")),
        "pipeline.self_s": sum(selfs[i] for i in roots),
        "pipeline.output_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "pipeline.cells": counts.get("pipeline.cells", 0),
        "config.load_config.s": total("config.load_config", run="setup"),
    }
    for name in ("dma_cluster.extract_clusters", "dma_cluster.crossing_times",
                 "dma_cluster.moving_average", "portfolio.max_sharpe_weights"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
    for name in ("dma_cluster.cluster_distribution", "dma_cluster.entropy_curve",
                 "dma_cluster.entropy_index", "portfolio.cluster_entropy_weights",
                 "pipeline.run_pipeline"):
        m[f"{name}.s"] = total(name)
    return m


def speed_scale(sample: dict) -> float:
    """Factor that brings the sample's times to the reference kernel speed."""
    return calib.REFERENCE_S / statistics.fmean(sample["kernel_s"])


def end_to_end(samples: list[dict]) -> dict:
    timed = [s for s in samples if "run_s" in s and not s["traced"]]
    scaled = lambda key: statistics.median(s[key] * speed_scale(s)  # noqa: E731
                                           for s in timed)
    return {
        "setup_s": scaled("setup_s"),
        "run_s": scaled("run_s"),
        "cpu_s": scaled("cpu_s"),
        "cells_per_s": statistics.median(s["cells"] / (s["run_s"] * speed_scale(s))
                                         for s in timed if "cells" in s),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }


def per_layer(samples: list[dict]) -> dict:
    traced = [s["layers"] for s in samples if "layers" in s]
    # median_low keeps a measured value (and integer counts) with an even count
    m = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
    timed = [s for s in samples if "run_s" in s]
    m["host.kernel_s"] = statistics.median(statistics.fmean(s["kernel_s"]) for s in timed)
    m["trace.overhead_s"] = (
        statistics.median(s["run_s"] * speed_scale(s) for s in timed if s["traced"])
        - statistics.median(s["run_s"] * speed_scale(s) for s in timed if not s["traced"]))
    return m


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(samples: list[dict]) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "versions": versions,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    started = time.monotonic()
    if not (ROOT / "src" / "entroport" / "__init__.py").is_file():
        print(f"no entroport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    config = prepare_inputs(args.workload, args.seed, WORK / "inputs")
    ref_dir = REFERENCE_DIR / args.workload
    # the reference applies to the recorded inputs, whichever seed made them
    recorded = ref_dir / "inputs.sha256"
    use_reference = (recorded.is_file()
                     and inputs_digest(config) == recorded.read_text().strip())
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    compileall.compile_dir(ROOT / "src", quiet=1)   # first sample pays no bytecode compile

    samples: list[dict] = []
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = run_sample(config, run_dir, traced, started + HARD_LIMIT_S)
        if samples and "sha256" in sample and sample["sha256"] != samples[0].get("sha256"):
            sample["problems"].append("outputs differ from the first sample of this seed")
        if not samples and use_reference and "sha256" in sample:
            sample["problems"] += check.compare_reference(run_dir / "out", ref_dir)
        samples.append(sample)
        spent = time.monotonic() - t0
        enough = len(samples) >= (2 if args.trace else 1)
        if enough and (spent + sample["wall_s"] > args.seconds
                       or time.monotonic() - started + sample["wall_s"] > HARD_LIMIT_S):
            break
    measured_s = time.monotonic() - t0

    failed = [s for s in samples if s["problems"]]
    for s in failed:
        print("FAILED sample:", "; ".join(s["problems"])[:2000], file=sys.stderr)
    have_timings = any("run_s" in s for s in samples if not s["traced"])
    if args.trace:
        have_timings = have_timings and any("layers" in s for s in samples)
    metrics = {}
    if have_timings:
        metrics = end_to_end(samples) if not args.trace else per_layer(samples)
    problems = []
    if have_timings and set(metrics) != {m["name"] for m in wanted}:
        problems.append("computed metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for p in problems:
        print("FAILED check:", p, file=sys.stderr)

    kind = "traced/untraced " if args.trace else ""
    print(f"{args.workload} seed {args.seed}: {len(samples)} {kind}analyze samples "
          f"in {measured_s:.1f} s, {len(failed)} failed, failed_frac "
          f"{len(failed) / len(samples):.4f}")
    trace = next((s["trace"] for s in samples if "trace" in s), {})
    if trace.get("absent") or trace.get("uncounted"):
        print(f"absent (reported as 0): {', '.join(trace['absent'] + trace['uncounted'])}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>16.6f} {m['unit']}")
    walls = sorted(s["run_s"] for s in samples if "run_s" in s and not s["traced"])
    if walls:
        kernels = [statistics.fmean(s["kernel_s"]) for s in samples if "run_s" in s]
        print(f"  unscaled analyze wall s over {len(walls)} samples: median "
              f"{statistics.median(walls):.4f}, max {walls[-1]:.4f}; reference kernel "
              f"s per pass: median {statistics.median(kernels):.4f} (scaled to "
              f"{calib.REFERENCE_S})")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "reference_checked": use_reference,
        "metrics": metrics, "failed": len(failed),
        "attempted": len(samples), "problems": problems,
        "output_sha256": next((s["sha256"] for s in samples if "sha256" in s), None),
        "samples": [{k: v for k, v in s.items() if k not in ("trace", "sha256")}
                    for s in samples],
        **environment(samples),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}")

    if not have_timings:
        print("no sample finished; no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
