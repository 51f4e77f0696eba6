"""Workload definitions: seeded pipeline configs and the seeded tick-file generator.

A workload turns a seed into the files `entroport analyze` reads: a JSON
config and, for tick workloads, one tick CSV per asset. Nothing here imports
entroport; the program sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

NS_PER_S = 1_000_000_000
YEAR_START = "2018-01-01"
_YEAR_START_NS = int(datetime(2018, 1, 1, tzinfo=timezone.utc).timestamp()) * NS_PER_S
_YEAR_S = 365 * 86_400

# Synthetic sweep: the ROADMAP Baseline medium config (FBM H=0.5 seed 1, FBM
# H=0.6 seed 2, ARFIMA d=0.2 seed 3, GARCH seed 4) in samples: windows of
# 3/6/12 samples, n of 5..50 samples, 12 horizons. At the Baseline's delta of
# 60 s and 2^20 samples one analyze takes about 30 s (2-vCPU x86-64 Linux
# machine, Python 3.11, numpy 2.4), too long to repeat inside one measured
# run, so delta is 600 s and 2^16 samples still span 12 months.
#
# The generator seeds stay fixed whatever the workload seed: the synth spec
# has no drift, so the signs of the assets' mean returns are random, and
# max_sharpe_weights takes 0.5 to 3.0 s per analyze depending on them
# (measured with generator seeds 4s+1..4s+4 for s = 0..7). That would swamp
# the cell loop these two workloads exist to measure.
SYNTH_DELTA_S = 600
SYNTH_LENGTH = 2 ** 16


def synth_config(horizon_mode: str) -> dict:
    k = SYNTH_DELTA_S // 60
    assets = [
        {"name": "FBM_H05", "synth": {"kind": "fbm", "hurst": 0.5,
                                      "length": SYNTH_LENGTH, "seed": 1}},
        {"name": "FBM_H06", "synth": {"kind": "fbm", "hurst": 0.6,
                                      "length": SYNTH_LENGTH, "seed": 2}},
        {"name": "ARFIMA_D02", "synth": {"kind": "arfima", "d": 0.2,
                                         "length": SYNTH_LENGTH, "seed": 3}},
        {"name": "GARCH", "synth": {"kind": "garch", "omega": 1e-6, "alpha": 0.05,
                                    "beta": 0.9, "length": SYNTH_LENGTH, "seed": 4}},
    ]
    return {
        "assets": assets,
        "delta_s": SYNTH_DELTA_S,
        "year_start": YEAR_START,
        "n_grid_s": {"min": 300 * k, "max": 3000 * k, "step": 300 * k},
        "volatility_windows_s": [180 * k, 360 * k, 720 * k],
        "horizons": list(range(1, 13)),
        "horizon_mode": horizon_mode,
        "output_dir": "out",
    }


# Tick sweep: six assets, Poisson arrivals, about 2% duplicate timestamps.
# The mean gap and the three windows are sized so one analyze takes seconds
# (at a 120 s gap and nine windows it takes about 14 s on the machine above).
TICK_ASSETS = 6
TICK_MEAN_GAP_S = 600.0
TICK_DUP_FRAC = 0.02
# duplicates shorten the span, so the data runs this far past the 12-month
# boundary; slice_horizon raises HorizonError if the grid stops short of it
TICK_MARGIN_S = 3 * 86_400
# the price paths are fixed (see tick_csv_bytes); their grid step, in seconds
TICK_PATH_SEED = 20180101
TICK_PATH_STEP_S = 60


def tick_config(seed: int) -> dict:
    return {
        "assets": [{"name": f"TICK{i}", "ticks": f"ticks_{i}.csv"}
                   for i in range(TICK_ASSETS)],
        "delta_s": 600,
        "year_start": YEAR_START,
        "n_grid_s": {"min": 1200, "max": 2400, "step": 1200},
        "volatility_windows_s": [1200, 3600, 6000],
        "horizons": list(range(1, 13)),
        "horizon_mode": "monthly",
        "output_dir": "out",
    }


def _price_path(asset: int, span_s: int) -> np.ndarray:
    """One asset's price on a TICK_PATH_STEP_S grid, the same for every seed.

    A geometric random walk with a per-asset drift and volatility. The drift
    is about five standard errors of a monthly mean return, so every asset's
    mean return is positive in every month and max_sharpe_weights always
    solves the full six-asset problem.
    """
    rng = np.random.default_rng(np.random.SeedSequence([TICK_PATH_SEED, asset]))
    drift = rng.uniform(6e-8, 1e-7)                # per second
    vol = rng.uniform(1e-5, 2e-5)                  # per sqrt(second)
    steps = (drift * TICK_PATH_STEP_S
             + vol * np.sqrt(TICK_PATH_STEP_S) * rng.standard_normal(span_s // TICK_PATH_STEP_S + 1))
    return 100.0 * np.exp(np.cumsum(steps))


def tick_csv_bytes(seed: int, asset: int, span_s: int = _YEAR_S + TICK_MARGIN_S) -> bytes:
    """One asset's tick file, a pure function of (seed, asset, span_s).

    Arrivals are Poisson with mean gap TICK_MEAN_GAP_S, at millisecond resolution,
    with about TICK_DUP_FRAC of the gaps set to zero (duplicate timestamps).
    The seed draws the arrivals only; each tick carries the asset's fixed
    price path (_price_path) at its time. The monthly moments, and with them
    the number of ascent steps max_sharpe_weights takes, then hardly change
    with the seed: with seeded prices that count varied fivefold between
    seeds and swung the workload's run time by up to 30%. The first tick
    sits at the year start so every asset resamples onto the same grid.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, asset]))
    count = int(span_s / TICK_MEAN_GAP_S * 1.1) + 1000
    gaps_ms = np.rint(rng.exponential(TICK_MEAN_GAP_S * 1000.0, count)).astype(np.int64)
    gaps_ms[rng.random(count) < TICK_DUP_FRAC] = 0
    gaps_ms[0] = 0
    offsets_ms = np.cumsum(gaps_ms)
    if offsets_ms[-1] < span_s * 1000:
        raise RuntimeError("tick generator fell short of the requested span")
    offsets_ms = offsets_ms[offsets_ms <= span_s * 1000]
    prices = _price_path(asset, span_s)[offsets_ms // (TICK_PATH_STEP_S * 1000)]
    stamps = _YEAR_START_NS + offsets_ms * 1_000_000
    # repr of a Python float, not of a numpy scalar ('np.float64(...)')
    lines = [f"{t},{p!r}" for t, p in zip(stamps.tolist(), prices.tolist())]
    return ("timestamp_ns,price\n" + "\n".join(lines) + "\n").encode("ascii")


WORKLOADS = {
    "synth_expanding": lambda seed: synth_config("expanding"),
    "synth_monthly": lambda seed: synth_config("monthly"),
    "ticks_wide": tick_config,
}


def prepare_inputs(workload: str, seed: int, cache_root: Path) -> Path:
    """Write the workload's config (and tick files) and return the config path.

    Inputs live in a directory keyed by the config and this file's source,
    so a later run with the same seed reuses them; a half-written directory
    is never reused because the config is written last.
    """
    cfg = WORKLOADS[workload](seed)
    key = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()
                         + Path(__file__).read_bytes()).hexdigest()[:12]
    d = cache_root / f"{workload}-seed{seed}-{key}"
    cfg_path = d / "config.json"
    if cfg_path.exists():
        return cfg_path
    d.mkdir(parents=True, exist_ok=True)
    for asset in cfg["assets"]:
        if "ticks" in asset:
            index = int(asset["name"][len("TICK"):])
            (d / asset["ticks"]).write_bytes(tick_csv_bytes(seed, index))
    tmp = d / "config.json.tmp"
    tmp.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    tmp.replace(cfg_path)
    return cfg_path


def inputs_digest(config: Path) -> str:
    """sha256 over the config and every input file beside it."""
    h = hashlib.sha256()
    for p in sorted(Path(config).parent.iterdir()):
        if p.is_file() and not p.name.endswith(".tmp"):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
