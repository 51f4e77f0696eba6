"""Pipeline orchestration: (asset x horizon x window x n-grid) sweep and CSV emission.

Cells are independent and run on a bounded thread pool (ENTROPORT_WORKERS);
results are keyed and sorted before writing, so parallelism never changes
output bytes. The manifest is written last and contains only fields fully
determined by config + seeds, keeping reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import AssetInput, PipelineConfig
from .dma_cluster import (EntropyCurve, EntropyIndex, aggregate_index,
                          cluster_distribution, entropy_curve, entropy_index,
                          extract_clusters)
from .errors import ConfigError, InsufficientClustersError, NoTangencyError
from .portfolio import (MomentEstimates, RiskProfile, WeightVector,
                        cluster_entropy_weights, kl_cross_entropy,
                        max_sharpe_weights, naive_weights, weight_entropy)
from .returns_vol import (VolatilityWindow, linear_returns, log_returns,
                          rolling_volatility)
from .series import (HorizonSpec, SampledSeries, align_lengths, parse_ticks,
                     resample, slice_horizon)
from .synth import to_price_series

logger = logging.getLogger(__name__)

METHOD_HIGH = "cluster_entropy_high"
METHOD_LOW = "cluster_entropy_low"
METHOD_SHARPE = "max_sharpe"
METHOD_NAIVE = "naive_1_over_N"


@dataclass
class CellResult:
    """Entropy output for one (asset, horizon, window) cell."""

    asset: str
    horizon: int
    window_s: int
    curves: dict[int, EntropyCurve] = field(default_factory=dict)
    indices: list[EntropyIndex] = field(default_factory=list)
    aggregate: float = 0.0
    warnings: list[str] = field(default_factory=list)


@dataclass
class PipelineResult:
    cells: dict[tuple[str, int, int], CellResult]
    weights: list[tuple[str, int, int, str, float]]   # method, M, T_s, asset, w
    diagnostics: list[tuple[str, int, int, float, float]]
    warnings: list[str]


def load_asset_prices(asset: AssetInput, cfg: PipelineConfig) -> SampledSeries:
    """Materialize an asset's price series from ticks or a generator spec."""
    if asset.ticks_path is not None:
        with open(asset.ticks_path, "rb") as fh:
            ticks = parse_ticks(fh)
        return resample(ticks, cfg.delta_ns)
    start_ns = HorizonSpec(cfg.year_start, 1).start_ns()
    raw = asset.generator.generate(delta=cfg.delta_ns, start_time=start_ns)
    return to_price_series(raw, scale=asset.price_scale)


def _returns(prices: SampledSeries, cfg: PipelineConfig) -> SampledSeries:
    fn = log_returns if cfg.return_kind == "log" else linear_returns
    return fn(prices)


def _cell_entropy(asset_name: str, source: SampledSeries, horizon: int,
                  window_s: int, cfg: PipelineConfig) -> CellResult:
    """Cluster-entropy curves and indices over the n grid for one cell."""
    cell = CellResult(asset=asset_name, horizon=horizon, window_s=window_s)
    for n in cfg.n_grid_samples():
        if n > len(source):
            cell.warnings.append(
                f"{asset_name} M={horizon} T={window_s}s n={n}: series too short")
            continue
        durations = extract_clusters(source, n)
        try:
            dist = cluster_distribution(durations, n, min_clusters=cfg.min_clusters)
        except InsufficientClustersError as exc:
            cell.warnings.append(
                f"{asset_name} M={horizon} T={window_s}s n={n}: dropped ({exc})")
            continue
        curve = entropy_curve(dist, estimator=cfg.entropy_estimator)
        cell.curves[n] = curve
        cell.indices.append(entropy_index(curve, cfg.threshold_for(n)))
    if not cell.indices:
        raise InsufficientClustersError(
            f"asset {asset_name!r} has no valid n point at M={horizon}, "
            f"T={window_s}s")
    cell.aggregate = aggregate_index(cell.indices, how=cfg.aggregation)
    return cell


def _worker_count() -> int:
    """Thread-pool size from ENTROPORT_WORKERS: default 1, values below 1 mean 1."""
    raw = os.environ.get("ENTROPORT_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"ENTROPORT_WORKERS must be an integer, got {raw!r}") from None


def run_pipeline(cfg: PipelineConfig, config_bytes: bytes | None = None) -> PipelineResult:
    """Run the full sweep and write all output files under cfg.output_dir."""
    t_start = time.monotonic()
    workers = _worker_count()
    names = tuple(a.name for a in cfg.assets)
    prices = align_lengths([load_asset_prices(a, cfg) for a in cfg.assets])
    logger.info("loaded %d assets, %d samples each", len(prices), len(prices[0]))

    warnings: list[str] = []
    cells: dict[tuple[str, int, int], CellResult] = {}
    weights_rows: list[tuple[str, int, int, str, float]] = []
    diag_rows: list[tuple[str, int, int, float, float]] = []

    # per-horizon returns, shared by every window
    horizon_returns: dict[int, list[SampledSeries]] = {}
    for m in cfg.horizons:
        spec = HorizonSpec(cfg.year_start, m)
        sliced = [slice_horizon(p, spec, mode=cfg.horizon_mode) for p in prices]
        horizon_returns[m] = [_returns(s, cfg) for s in sliced]

    tasks = []
    for m in cfg.horizons:
        for t_s in cfg.volatility_windows_s:
            window = VolatilityWindow.from_physical(t_s, cfg.delta_ns)
            for name, rets in zip(names, horizon_returns[m]):
                tasks.append((name, m, t_s, window, rets))

    def run_task(task):
        name, m, t_s, window, rets = task
        if cfg.entropy_source == "volatility":
            source = rolling_volatility(rets, window)
        else:
            source = rets
        return _cell_entropy(name, source, m, t_s, cfg)

    if workers == 1:
        results = [run_task(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_task, tasks))
    for cell in results:
        cells[(cell.asset, cell.horizon, cell.window_s)] = cell
        warnings.extend(cell.warnings)

    uniform = naive_weights(names)
    for m in cfg.horizons:
        rets = horizon_returns[m]
        ret_matrix = np.vstack([r.values for r in rets])
        moments = MomentEstimates(mu=ret_matrix.mean(axis=1),
                                  sigma=np.cov(ret_matrix, ddof=1))
        for t_s in cfg.volatility_windows_s:
            aggs = [cells[(name, m, t_s)].aggregate for name in names]
            per_method: dict[str, WeightVector] = {
                METHOD_HIGH: cluster_entropy_weights(aggs, names, RiskProfile.HIGH_RISK),
                METHOD_LOW: cluster_entropy_weights(aggs, names, RiskProfile.LOW_RISK),
                METHOD_NAIVE: uniform,
            }
            try:
                per_method[METHOD_SHARPE] = max_sharpe_weights(moments, names)
            except NoTangencyError as exc:
                warnings.append(f"M={m} T={t_s}s: max_sharpe skipped ({exc})")
            for method in sorted(per_method):
                wv = per_method[method]
                for name, w in zip(names, wv.weights):
                    weights_rows.append((method, m, t_s, name, float(w)))
                diag_rows.append((method, m, t_s, weight_entropy(wv),
                                  kl_cross_entropy(wv, uniform)))

    result = PipelineResult(cells=cells, weights=weights_rows,
                            diagnostics=diag_rows, warnings=sorted(warnings))
    _write_outputs(result, cfg, config_bytes)
    logger.info("pipeline finished in %.2fs (%d cells, %d warnings)",
                time.monotonic() - t_start, len(cells), len(warnings))
    return result


# --- output files ------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_outputs(result: PipelineResult, cfg: PipelineConfig,
                   config_bytes: bytes | None) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "entropy_curves.csv", "w", newline="\n") as fh:
        fh.write("asset,horizon,T_s,n,tau,S\n")
        for key in sorted(result.cells):
            cell = result.cells[key]
            for n in sorted(cell.curves):
                curve = cell.curves[n]
                for tau, s in zip(curve.taus.tolist(), curve.values.tolist()):
                    fh.write(f"{cell.asset},{cell.horizon},{cell.window_s},"
                             f"{n},{tau},{_fmt(s)}\n")

    with open(out / "indices_by_n.csv", "w", newline="\n") as fh:
        fh.write("asset,horizon,T_s,n,I_n\n")
        for key in sorted(result.cells):
            cell = result.cells[key]
            for ix in sorted(cell.indices, key=lambda i: i.n):
                fh.write(f"{cell.asset},{cell.horizon},{cell.window_s},"
                         f"{ix.n},{_fmt(ix.value)}\n")

    with open(out / "indices_aggregated.csv", "w", newline="\n") as fh:
        fh.write("asset,horizon,T_s,I\n")
        for key in sorted(result.cells):
            cell = result.cells[key]
            fh.write(f"{cell.asset},{cell.horizon},{cell.window_s},"
                     f"{_fmt(cell.aggregate)}\n")

    with open(out / "weights.csv", "w", newline="\n") as fh:
        fh.write("method,horizon,T_s,asset,weight\n")
        for method, m, t_s, asset, w in sorted(result.weights):
            fh.write(f"{method},{m},{t_s},{asset},{_fmt(w)}\n")

    with open(out / "diagnostics.csv", "w", newline="\n") as fh:
        fh.write("method,horizon,T_s,weight_entropy,kl_vs_uniform\n")
        for method, m, t_s, went, kl in sorted(result.diagnostics):
            fh.write(f"{method},{m},{t_s},{_fmt(went)},{_fmt(kl)}\n")

    manifest = {
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(config_bytes or b"").hexdigest(),
        "n_cells": len(result.cells),
        "warnings": result.warnings,
        "outputs": ["entropy_curves.csv", "indices_by_n.csv",
                    "indices_aggregated.csv", "weights.csv", "diagnostics.csv"],
    }
    # written last; wall-clock timings go to the log, not here, so that a
    # rerun with the same config stays byte-identical
    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- figure-ready exports ----------------------------------------------------

FIGURE_KEYS = ("entropy_curves", "weights_vs_horizon")


def emit_figure_data(run_dir: str | Path, figure: str) -> list[Path]:
    """Reshape a finished run's CSVs into plot-ready files under run_dir/figures."""
    run_dir = Path(run_dir)
    if figure not in FIGURE_KEYS:
        raise ValueError(f"unknown figure key {figure!r}; expected one of {FIGURE_KEYS}")
    fig_dir = run_dir / "figures"
    written: list[Path] = []

    if figure == "entropy_curves":
        src = run_dir / "entropy_curves.csv"
        rows = _read_csv_rows(src)
        if not rows:
            raise ValueError(f"{src}: no entropy curves to export")
        groups: dict[tuple[str, int, int], list] = {}
        for asset, m, t_s, n, tau, s in rows:
            groups.setdefault((asset, int(m), int(t_s)), []).append((int(n), int(tau), s))
        fig_dir.mkdir(parents=True, exist_ok=True)
        for (asset, m, t_s) in sorted(groups):
            path = fig_dir / f"fig_entropy_{asset}_M{m:02d}_T{t_s}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("n,tau,S\n")
                for n, tau, s in sorted(groups[(asset, m, t_s)]):
                    fh.write(f"{n},{tau},{s}\n")
            written.append(path)
    else:
        src = run_dir / "weights.csv"
        rows = _read_csv_rows(src)
        if not rows:
            raise ValueError(f"{src}: no weights to export")
        fig_dir.mkdir(parents=True, exist_ok=True)
        path = fig_dir / "fig_weights_vs_horizon.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("method,T_s,M,asset,weight\n")
            for method, m, t_s, asset, w in sorted(
                    rows, key=lambda r: (r[0], int(r[2]), int(r[1]), r[3])):
                fh.write(f"{method},{t_s},{m},{asset},{w}\n")
        written.append(path)
    return written


def _read_csv_rows(path: Path) -> list[list[str]]:
    if not path.exists():
        raise FileNotFoundError(path)
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]
