"""Pipeline orchestration: (asset x horizon x window x n-grid) sweep and CSV emission.

Each asset's returns, each (asset, window) volatility series and each
(asset, window, n) crossing pass are computed once over the whole series;
every horizon cuts its cell out of them by index. The sweep fills one
PipelineResult whose tables are keyed by cell, (asset, M, T_s), and the
writer emits each table sorted by key. The manifest is written last and
contains only fields fully determined by config + seeds, keeping reruns
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import AssetInput, PipelineConfig
from .dma_cluster import (PrefixTables, aggregate_index, crossing_pass, entropy_curve,
                          entropy_index)
from .errors import (DataError, EntroportError, InputFileError,
                     InsufficientClustersError, NoTangencyError)
from .portfolio import (cluster_entropy_weights, kl_cross_entropy, max_sharpe_weights,
                        naive_weights, weight_entropy)
from .returns_vol import linear_returns, log_returns, rolling_volatility
from .series import (iso_utc, month_start_ns, parse_ticks, resample, slice_horizon,
                     whole_samples)

logger = logging.getLogger(__name__)

METHOD_HIGH = "cluster_entropy_high"
METHOD_LOW = "cluster_entropy_low"
METHOD_SHARPE = "max_sharpe"
METHOD_NAIVE = "naive_1_over_N"
_Cell = tuple[str, int, int]  # (asset, horizon M, volatility window T_s)


class PipelineResult:
    """The sweep's tables, keyed by cell (asset, M, T_s), and what run_pipeline wrote.

    cells[cell] is the aggregate I; curves[cell][n] is (taus, S) and
    indices[cell][n] is I(n), for each kept n in n-grid order. weights rows
    are (method, M, T_s, asset, w) and diagnostics rows (method, M, T_s,
    weight entropy, KL vs uniform); warnings is sorted once the sweep ends.
    """

    __slots__ = ("cells", "curves", "indices", "weights", "diagnostics", "warnings")

    def __init__(self):
        self.cells: dict[_Cell, float] = {}
        self.curves: dict[_Cell, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.indices: dict[_Cell, dict[int, float]] = {}
        self.weights: list[tuple[str, int, int, str, float]] = []
        self.diagnostics: list[tuple[str, int, int, float, float]] = []
        self.warnings: list[str] = []


@contextmanager
def _naming(asset: AssetInput, what: str = ""):
    """Name the asset, its tick file or generator kind, and `what` in an error raised inside.

    An EntroportError keeps its class, an OSError becomes an InputFileError
    and running out of memory or address space a DataError.
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
    except ValueError as exc:  # e.g. a grid longer than the address space
        raise DataError(f"{where}: {exc}") from None


def load_asset_prices(asset: AssetInput, cfg: PipelineConfig) -> tuple[int, np.ndarray]:
    """An asset's first index k on the run grid and its prices from there.

    The run grid is month_start_ns(year_start, 0) + k * delta; a synthetic
    asset starts at k = 0. An error keeps its class, and its message names
    the asset and its tick file or generator kind; running out of memory or
    address space is a DataError.
    """
    ticks, spec = asset.ticks_path, asset.generator
    with _naming(asset):
        if spec is None:
            return resample(parse_ticks(ticks),
                            month_start_ns(cfg.year_start, 0), cfg.delta_ns)
        return 0, spec.prices()


def _add_n(keys: list[_Cell], spans: list[tuple[int, int]],
           tables: PrefixTables, n: int, cfg: PipelineConfig, result: PipelineResult) -> None:
    """Entropy curve and index at one n for each cell into result, or a warning why not.

    keys[i] is the cell at spans[i], a (start, stop) in its window's volatility
    series, tables.series. One crossing pass over the whole series (its signs
    settled by one rule, see crossing_pass) serves every span and
    histograms each of its durations once; it dies with this call, so one
    n's pass is alive at a time (two cost peak RSS).
    """
    cpass = crossing_pass(tables, n)
    dists = cpass.distributions(spans, cfg.min_clusters)
    for key, dist in zip(keys, dists):
        label = "{} M={} T={}s n={}".format(*key, n)
        if isinstance(dist, InsufficientClustersError):
            result.warnings.append(f"{label}: dropped ({dist})")
        elif not isinstance(dist, tuple):
            result.warnings.append(f"{label}: series too short")
        else:
            taus, counts = dist
            curve = entropy_curve(counts)
            result.curves.setdefault(key, {})[n] = (taus, curve)
            result.indices.setdefault(key, {})[n] = entropy_index(curve)
    if logger.isEnabledFor(logging.DEBUG):
        dropped = sum(isinstance(d, InsufficientClustersError) for d in dists)
        kept = sum(isinstance(d, tuple) for d in dists)
        asset, _, t_s = keys[0]
        logger.debug("%s T=%ss n=%d: %s; %d crossings; cells %d kept, %d dropped, "
                     "%d too short", asset, t_s, n, cpass.rule, len(cpass.times),
                     kept, dropped, len(dists) - kept - dropped)


def _asset_cells(asset: AssetInput, returns: np.ndarray, ranges: dict[int, slice],
                 cfg: PipelineConfig, result: PipelineResult) -> None:
    """One asset's cells at every window and horizon, into result.

    Prices [lo, hi) have returns r[lo:hi-1] and volatility vol[lo:hi-w],
    exactly those of the sliced prices, so each window's volatility series
    and its crossing pass at each n are computed once over the whole series,
    and each horizon takes its span by index.
    """
    for t_s in cfg.volatility_windows_s:
        w = whole_samples(t_s, cfg.delta_ns, "volatility window")
        for rng in ranges.values():
            if rng.stop - rng.start <= w:  # fewer returns than w; ranges hold >= 2 prices
                raise DataError(f"window ({w}) longer than series ({rng.stop - 1 - rng.start})")
        with _naming(asset, f", volatility window {t_s}s"):
            vol = rolling_volatility(returns, w)
        tables = PrefixTables(vol)  # shared by the passes of every n
        keys = [(asset.name, m, t_s) for m in ranges]
        spans = [(rng.start, rng.stop - w) for rng in ranges.values()]
        for n in cfg.n_grid_samples():
            _add_n(keys, spans, tables, n, cfg, result)
        for key in keys:
            if key not in result.indices:
                raise InsufficientClustersError(f"asset {asset.name!r} has no valid n point "
                                                f"at M={key[1]}, T={key[2]}s")
            result.cells[key] = aggregate_index(list(result.indices[key].values()),
                                                how=cfg.aggregation)


def run_pipeline(cfg: PipelineConfig, config_bytes: bytes | None = None) -> PipelineResult:
    """Run the full sweep and write all output files under cfg.output_dir."""
    t_start = time.monotonic()
    names = tuple(a.name for a in cfg.assets)
    origin, delta = month_start_ns(cfg.year_start, 0), cfg.delta_ns
    loaded = [load_asset_prices(a, cfg) for a in cfg.assets]
    firsts = [first for first, _ in loaded]
    ends = [first + len(p) for first, p in loaded]
    lo, hi = max(firsts), min(ends)  # the grid indices every asset covers
    if lo >= hi:
        raise DataError("the assets share no grid point: " + ", ".join(
            f"asset {name!r} covers " + (f"{iso_utc(origin + first * delta)} to "
                                         f"{iso_utc(origin + (end - 1) * delta)}"
                                         if first < end else "none")
            for name, first, end in zip(names, firsts, ends)))
    prices = [p[lo - first:hi - first] for first, p in loaded]
    logger.info("loaded %d assets, %d samples each", len(prices), hi - lo)

    # one price index range per horizon, on the grid every asset covers
    with _naming(cfg.assets[ends.index(hi)], ", which ends the grid every asset covers"):
        ranges = {m: slice_horizon(origin + lo * delta, delta, hi - lo, cfg.year_start, m,
                                   mode=cfg.horizon_mode) for m in cfg.horizons}
    if any(rng.stop - rng.start < 2 for rng in ranges.values()):
        raise DataError("need at least 2 prices to compute returns")
    end = max(rng.stop for rng in ranges.values())  # later samples feed no cell
    to_returns = log_returns if cfg.return_kind == "log" else linear_returns
    returns = []
    for asset, p in zip(cfg.assets, prices):
        with _naming(asset):
            returns.append(to_returns(p[:end]))

    result = PipelineResult()
    for asset, rets in zip(cfg.assets, returns):
        _asset_cells(asset, rets, ranges, cfg, result)

    uniform = naive_weights(len(names))
    for m, rng in ranges.items():
        ret_matrix = np.vstack([r[rng.start:rng.stop - 1] for r in returns])
        mu, sigma = ret_matrix.mean(axis=1), np.cov(ret_matrix, ddof=1)
        # the moments depend on the horizon only, so every window shares one solve
        try:
            sharpe, no_tangency = max_sharpe_weights(mu, sigma), None
        except NoTangencyError as exc:
            sharpe, no_tangency = None, exc
        for t_s in cfg.volatility_windows_s:
            aggs = [result.cells[(name, m, t_s)] for name in names]
            bad = [f"asset {name!r} I={i!r}" for name, i in zip(names, aggs)
                   if not 0 < i < math.inf]
            if bad:  # e.g. 0 when every cluster of an asset has one duration
                raise DataError(f"M={m} T={t_s}s: the cluster-entropy index must be "
                                f"finite and positive, got {', '.join(bad)}")
            indices = np.array(aggs)
            per_method = {
                METHOD_HIGH: cluster_entropy_weights(indices),
                METHOD_LOW: cluster_entropy_weights(1.0 / indices),
                METHOD_NAIVE: uniform,
            }
            if sharpe is None:
                result.warnings.append(f"M={m} T={t_s}s: max_sharpe skipped ({no_tangency})")
            else:
                per_method[METHOD_SHARPE] = sharpe
            for method in sorted(per_method):
                w = per_method[method]
                result.weights.extend((method, m, t_s, name, x)
                                      for name, x in zip(names, w.tolist()))
                result.diagnostics.append((method, m, t_s, weight_entropy(w),
                                           kl_cross_entropy(w, uniform)))

    result.warnings.sort()
    _write_outputs(result, cfg, config_bytes)
    logger.info("pipeline finished in %.2fs (%d cells, %d warnings)",
                time.monotonic() - t_start, len(result.cells), len(result.warnings))
    return result


# --- output files ------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _curve_lines(curves: dict[_Cell, dict[int, tuple[np.ndarray, np.ndarray]]]):
    """One block of "asset,horizon,T_s,n,tau,S" rows per curve; S as repr, like _fmt."""
    for (asset, m, t_s), by_n in sorted(curves.items()):
        for n, (taus, s) in sorted(by_n.items()):
            prefix = f"{asset},{m},{t_s},{n},"
            yield prefix + ("\n" + prefix).join(
                map("{},{!r}".format, taus.tolist(), s.tolist())) + "\n"


def _write_outputs(result: PipelineResult, cfg: PipelineConfig,
                   config_bytes: bytes | None) -> None:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    # an old manifest beside half-rewritten CSVs would mark a mixed directory complete
    (out / "manifest.json").unlink(missing_ok=True)

    _write_csv(out / "entropy_curves.csv", "asset,horizon,T_s,n,tau,S", _curve_lines(result.curves))
    _write_csv(out / "indices_by_n.csv", "asset,horizon,T_s,n,I_n", (
        f"{asset},{m},{t_s},{n},{_fmt(i_n)}\n"
        for (asset, m, t_s), by_n in sorted(result.indices.items())
        for n, i_n in sorted(by_n.items())))
    _write_csv(out / "indices_aggregated.csv", "asset,horizon,T_s,I", (
        f"{asset},{m},{t_s},{_fmt(i)}\n" for (asset, m, t_s), i in sorted(result.cells.items())))
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
    # written last, and whole or not at all; wall-clock timings go to the
    # log, not here, so that a rerun with the same config stays byte-identical
    tmp = out / "manifest.json.tmp"
    with open(tmp, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, out / "manifest.json")

