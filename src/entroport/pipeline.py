"""Pipeline orchestration: (asset x horizon x window x n-grid) sweep and CSV emission.

Each asset's returns, each (asset, window) volatility series and each
(asset, window, n) crossing pass are computed once over the whole series;
every horizon cuts its cell out of them by index. Results are keyed and
sorted before writing. The manifest is written last and contains only
fields fully determined by config + seeds, keeping reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import AssetInput, PipelineConfig
from .dma_cluster import (ClusterDistribution, EntropyCurve, EntropyIndex,
                          PrefixTables, aggregate_index, crossing_pass,
                          entropy_curve, entropy_index)
from .errors import (DataError, EntroportError, InputFileError,
                     InsufficientClustersError, NoTangencyError)
from .portfolio import (MomentEstimates, RiskProfile, WeightVector,
                        cluster_entropy_weights, kl_cross_entropy,
                        max_sharpe_weights, naive_weights, weight_entropy)
from .returns_vol import linear_returns, log_returns, rolling_volatility
from .series import (SampledSeries, align_lengths, month_start_ns, parse_ticks,
                     resample, slice_horizon, whole_samples)
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


@contextmanager
def _naming(asset: AssetInput, what: str = ""):
    """Name the asset, its tick file or generator kind, and `what` in an error raised inside.

    An EntroportError keeps its class, an OSError becomes an InputFileError
    and running out of memory a DataError.
    """
    source = asset.ticks_path if asset.generator is None else f"synth {asset.generator.kind}"
    where = f"asset {asset.name!r} ({source}){what}"
    try:
        yield
    except EntroportError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except OSError as exc:
        raise InputFileError(f"{where}: {exc.strerror}") from None
    except MemoryError as exc:  # e.g. a grid finer than memory can hold
        raise DataError(f"{where}: out of memory ({exc})") from None


def load_asset_prices(asset: AssetInput, cfg: PipelineConfig) -> SampledSeries:
    """Materialize an asset's price series from ticks or a generator spec.

    An error keeps its class, and its message names the asset and its tick
    file or generator kind; running out of memory is a DataError.
    """
    ticks, spec = asset.ticks_path, asset.generator
    with _naming(asset):
        if spec is None:
            return resample(parse_ticks(ticks.read_bytes()), cfg.delta_ns)
        raw = spec.generate(delta=cfg.delta_ns, start_time=month_start_ns(cfg.year_start, 0))
        return to_price_series(raw, scale=asset.price_scale)


def _add_n(cells: list[CellResult], spans: list[tuple[int, int]],
           tables: PrefixTables, n: int, cfg: PipelineConfig) -> None:
    """Entropy curve and index at one n for each cell, or a warning why not.

    spans[i] is cells[i]'s (start, stop) in the source, tables.series. One
    crossing pass over the whole source (its signs from the source's prefix
    tables, see PrefixTables) serves every cell's span and histograms each of
    its durations once; it dies with this call, so one n's pass is alive at a
    time (two cost peak RSS).
    """
    if n <= len(tables.series):
        cpass = crossing_pass(tables, n)
        dists = cpass.distributions(spans, cfg.min_clusters)
    else:  # every span is too short
        cpass, dists = None, [None] * len(cells)
    for cell, dist in zip(cells, dists):
        label = f"{cell.asset} M={cell.horizon} T={cell.window_s}s n={n}"
        if isinstance(dist, InsufficientClustersError):
            cell.warnings.append(f"{label}: dropped ({dist})")
        elif not isinstance(dist, ClusterDistribution):
            cell.warnings.append(f"{label}: series too short")
        else:
            curve = entropy_curve(dist, estimator=cfg.entropy_estimator)
            cell.curves[n] = curve
            cell.indices.append(entropy_index(curve, cfg.threshold_for(n)))
    if logger.isEnabledFor(logging.DEBUG):
        dropped = sum(isinstance(d, InsufficientClustersError) for d in dists)
        kept = sum(isinstance(d, ClusterDistribution) for d in dists)
        logger.debug("%s T=%ds n=%d: %s; %d crossings; cells %d kept, %d dropped, "
                     "%d too short", cells[0].asset, cells[0].window_s, n,
                     "no pass" if cpass is None else
                     "signs certified" if cpass.certified else
                     f"full convolve (flat run {tables.flat_run} >= n)"
                     if n <= tables.flat_run else "full convolve (signs in doubt)",
                     0 if cpass is None else len(cpass.times), kept, dropped,
                     len(dists) - kept - dropped)


def _window_cells(asset: AssetInput, returns: SampledSeries, ranges: dict[int, slice],
                  t_s: int, cfg: PipelineConfig) -> list[CellResult]:
    """One asset's cells at window t_s for every horizon.

    Prices [lo, hi) have returns r[lo:hi-1] and volatility vol[lo:hi-w],
    exactly those of the sliced prices, so the whole-series source is
    computed once and each horizon takes its span by index.
    """
    w = whole_samples(t_s, cfg.delta_ns, "volatility window")
    cut = 1 if cfg.entropy_source == "return" else w
    for rng in ranges.values():
        if rng.stop - rng.start <= cut:  # fewer returns than w; ranges hold >= 2 prices
            raise DataError(f"window ({cut}) longer than series ({rng.stop - 1 - rng.start})")
    with _naming(asset, f", volatility window {t_s}s"):
        source = returns if cfg.entropy_source == "return" else rolling_volatility(returns, w)
    spans = [(rng.start, rng.stop - cut) for rng in ranges.values()]
    cells = [CellResult(asset=asset.name, horizon=m, window_s=t_s) for m in ranges]
    tables = PrefixTables(source)  # shared by the passes of every n
    for n in cfg.n_grid_samples():
        _add_n(cells, spans, tables, n, cfg)
    for cell in cells:
        if not cell.indices:
            raise InsufficientClustersError(
                f"asset {asset.name!r} has no valid n point at M={cell.horizon}, T={t_s}s")
        cell.aggregate = aggregate_index(cell.indices, how=cfg.aggregation)
    return cells


def run_pipeline(cfg: PipelineConfig, config_bytes: bytes | None = None) -> PipelineResult:
    """Run the full sweep and write all output files under cfg.output_dir."""
    t_start = time.monotonic()
    names = tuple(a.name for a in cfg.assets)
    prices = align_lengths([load_asset_prices(a, cfg) for a in cfg.assets])
    logger.info("loaded %d assets, %d samples each", len(prices), len(prices[0]))

    # one price index range per horizon: all assets share the grid of prices[0]
    ranges = {m: slice_horizon(prices[0], cfg.year_start, m, mode=cfg.horizon_mode)
              for m in cfg.horizons}
    if any(rng.stop - rng.start < 2 for rng in ranges.values()):
        raise DataError("need at least 2 prices to compute returns")
    end = max(rng.stop for rng in ranges.values())  # later samples feed no cell
    to_returns = log_returns if cfg.return_kind == "log" else linear_returns
    returns = []
    for asset, p in zip(cfg.assets, prices):
        with _naming(asset):
            returns.append(to_returns(p.with_values(p.values[:end])))

    warnings: list[str] = []
    cells: dict[tuple[str, int, int], CellResult] = {}
    weights_rows: list[tuple[str, int, int, str, float]] = []
    diag_rows: list[tuple[str, int, int, float, float]] = []

    for asset, rets in zip(cfg.assets, returns):
        for t_s in cfg.volatility_windows_s:
            for cell in _window_cells(asset, rets, ranges, t_s, cfg):
                cells[(asset.name, cell.horizon, t_s)] = cell
                warnings.extend(cell.warnings)

    uniform = naive_weights(names)
    for m, rng in ranges.items():
        ret_matrix = np.vstack([r.values[rng.start:rng.stop - 1] for r in returns])
        moments = MomentEstimates(mu=ret_matrix.mean(axis=1),
                                  sigma=np.cov(ret_matrix, ddof=1))
        # the moments depend on the horizon only, so every window shares one solve
        try:
            sharpe, no_tangency = max_sharpe_weights(moments, names), None
        except NoTangencyError as exc:
            sharpe, no_tangency = None, exc
        for t_s in cfg.volatility_windows_s:
            aggs = [cells[(name, m, t_s)].aggregate for name in names]
            per_method: dict[str, WeightVector] = {
                METHOD_HIGH: cluster_entropy_weights(aggs, names, RiskProfile.HIGH_RISK),
                METHOD_LOW: cluster_entropy_weights(aggs, names, RiskProfile.LOW_RISK),
                METHOD_NAIVE: uniform,
            }
            if sharpe is None:
                warnings.append(f"M={m} T={t_s}s: max_sharpe skipped ({no_tangency})")
            else:
                per_method[METHOD_SHARPE] = sharpe
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


def _write_csv(path: Path, header: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _curve_lines(cells: list[CellResult]):
    """One block of "asset,horizon,T_s,n,tau,S" rows per curve; S as repr, like _fmt."""
    for c in cells:
        for n in sorted(c.curves):
            prefix = f"{c.asset},{c.horizon},{c.window_s},{n},"
            curve = c.curves[n]
            yield prefix + ("\n" + prefix).join(
                map("{},{!r}".format, curve.taus.tolist(), curve.values.tolist())) + "\n"


def _write_outputs(result: PipelineResult, cfg: PipelineConfig,
                   config_bytes: bytes | None) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    # an old manifest beside half-rewritten CSVs would mark a mixed directory complete
    (out / "manifest.json").unlink(missing_ok=True)

    cells = [result.cells[key] for key in sorted(result.cells)]
    _write_csv(out / "entropy_curves.csv", "asset,horizon,T_s,n,tau,S", _curve_lines(cells))
    _write_csv(out / "indices_by_n.csv", "asset,horizon,T_s,n,I_n", (
        f"{c.asset},{c.horizon},{c.window_s},{ix.n},{_fmt(ix.value)}\n"
        for c in cells for ix in sorted(c.indices, key=lambda i: i.n)))
    _write_csv(out / "indices_aggregated.csv", "asset,horizon,T_s,I", (
        f"{c.asset},{c.horizon},{c.window_s},{_fmt(c.aggregate)}\n" for c in cells))
    _write_csv(out / "weights.csv", "method,horizon,T_s,asset,weight", (
        f"{method},{m},{t_s},{asset},{_fmt(w)}\n"
        for method, m, t_s, asset, w in sorted(result.weights)))
    _write_csv(out / "diagnostics.csv", "method,horizon,T_s,weight_entropy,kl_vs_uniform", (
        f"{method},{m},{t_s},{_fmt(went)},{_fmt(kl)}\n"
        for method, m, t_s, went, kl in sorted(result.diagnostics)))

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
        rows = _read_csv_rows(src, ints=(1, 2, 3, 4))
        if not rows:
            raise ValueError(f"{src}: no entropy curves to export")
        groups: dict[tuple[str, int, int], list] = {}
        for asset, m, t_s, n, tau, s in rows:
            groups.setdefault((asset, m, t_s), []).append((n, tau, s))
        fig_dir.mkdir(parents=True, exist_ok=True)
        for (asset, m, t_s) in sorted(groups):
            path = fig_dir / f"fig_entropy_{asset}_M{m:02d}_T{t_s}.csv"
            _write_csv(path, "n,tau,S", (f"{n},{tau},{s}\n" for n, tau, s
                                         in sorted(groups[(asset, m, t_s)])))
            written.append(path)
    else:
        src = run_dir / "weights.csv"
        rows = _read_csv_rows(src, ints=(1, 2))
        if not rows:
            raise ValueError(f"{src}: no weights to export")
        fig_dir.mkdir(parents=True, exist_ok=True)
        path = fig_dir / "fig_weights_vs_horizon.csv"
        _write_csv(path, "method,T_s,M,asset,weight", (
            f"{method},{t_s},{m},{asset},{w}\n" for method, m, t_s, asset, w
            in sorted(rows, key=lambda r: (r[0], r[2], r[1], r[3]))))
        written.append(path)
    return written


def _read_csv_rows(path: Path, ints: tuple[int, ...]) -> list[list]:
    """The data rows of a run CSV, with the fields at ints parsed as integers.

    A row with another field count than the header's, or an integer field
    that does not parse, is a ValueError naming the file and the line.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror}") from None
    width = len(lines[0].split(",")) if lines else 0
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            for i in ints:
                row[i] = int(row[i])
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        rows.append(row)
    return rows
