"""Command line interface: analyze / synth / figures subcommands.

Exit codes: 0 success, 2 invalid config or data, or an output path that
cannot be written, 3 a missing or unreadable input file, 4 insufficient
cluster statistics for a whole asset.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from datetime import date, datetime, timezone
from pathlib import Path

from .config import load_config
from .errors import (ConfigError, DataError, EntroportError, InputFileError,
                     InsufficientClustersError)
from .pipeline import FIGURE_KEYS, emit_figure_data, run_pipeline
from .series import NS_PER_S, write_series_csv
from .synth import GeneratorSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_INSUFFICIENT = 4

logger = logging.getLogger("entroport")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroport",
        description="Cluster-entropy multi-period portfolio pipeline",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline from a JSON config")
    p_an.add_argument("config", type=Path, help="path to pipeline config JSON")

    p_sy = sub.add_parser("synth", help="emit one synthetic series as a cache CSV")
    p_sy.add_argument("--kind", required=True, choices=["fbm", "arfima", "garch"])
    p_sy.add_argument("--length", required=True, type=int)
    p_sy.add_argument("--seed", required=True, type=int)
    p_sy.add_argument("--hurst", type=float, help="Hurst exponent (fbm)")
    p_sy.add_argument("--d", type=float, help="fractional order (arfima)")
    p_sy.add_argument("--omega", type=float, help="garch omega")
    p_sy.add_argument("--alpha", type=float, help="garch alpha")
    p_sy.add_argument("--beta", type=float, help="garch beta")
    p_sy.add_argument("--delta-s", type=float, default=1.0,
                      help="sampling interval in seconds (default 1)")
    p_sy.add_argument("--start", type=date.fromisoformat, default=date(2018, 1, 1),
                      help="UTC start date of the series (default 2018-01-01)")
    p_sy.add_argument("--out", required=True, type=Path, help="output CSV path")

    p_fig = sub.add_parser("figures", help="reshape a run directory into plot-ready CSVs")
    p_fig.add_argument("run_dir", type=Path)
    p_fig.add_argument("--figure", choices=list(FIGURE_KEYS) + ["all"], default="all")
    return parser


def _cmd_analyze(args) -> int:
    try:
        config_bytes = args.config.read_bytes()
        cfg = load_config(args.config)
    except OSError as exc:
        logger.error("cannot read config %s: %s", args.config, exc.strerror)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        logger.error("invalid config: %s", exc)
        return EXIT_CONFIG
    try:
        result = run_pipeline(cfg, config_bytes=config_bytes)
    except InsufficientClustersError as exc:
        logger.error("%s", exc)
        return EXIT_INSUFFICIENT
    except InputFileError as exc:
        logger.error("cannot read input: %s", exc)
        return EXIT_MISSING_INPUT
    except EntroportError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as InputFileError, so this is a write
        logger.error("cannot write outputs to %s: %s", cfg.output_dir, exc)
        return EXIT_CONFIG
    logger.info("wrote outputs to %s (%d warnings)", cfg.output_dir,
                len(result.warnings))
    return EXIT_OK


def _cmd_synth(args) -> int:
    kwargs = dict(kind=args.kind, length=args.length, seed=args.seed)
    if args.kind == "fbm":
        if args.hurst is None:
            logger.error("--hurst is required for fbm")
            return EXIT_CONFIG
        kwargs["hurst"] = args.hurst
    elif args.kind == "arfima":
        if args.d is None:
            logger.error("--d is required for arfima")
            return EXIT_CONFIG
        kwargs["d"] = args.d
    else:
        if None in (args.omega, args.alpha, args.beta):
            logger.error("--omega/--alpha/--beta are required for garch")
            return EXIT_CONFIG
        kwargs.update(omega=args.omega, alpha=args.alpha, beta=args.beta)
    try:
        spec = GeneratorSpec(**kwargs)
        start_ns = int(datetime(args.start.year, args.start.month, args.start.day,
                                tzinfo=timezone.utc).timestamp()) * NS_PER_S
        if not math.isfinite(args.delta_s * NS_PER_S):
            raise DataError(f"--delta-s {args.delta_s} is not a finite number of nanoseconds")
        delta = int(round(args.delta_s * NS_PER_S))
        if not (-2**63 <= start_ns and start_ns + (args.length - 1) * delta < 2**63):
            raise DataError(f"sample times from --start {args.start} at --delta-s "
                            f"{args.delta_s} do not fit int64 nanoseconds")
        series = spec.generate(delta=delta, start_time=start_ns)
    except EntroportError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    try:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_series_csv(series, args.out)
    except OSError as exc:
        logger.error("cannot write %s: %s", args.out, exc)
        return EXIT_CONFIG
    logger.info("wrote %d samples to %s", len(series), args.out)
    return EXIT_OK


def _cmd_figures(args) -> int:
    keys = FIGURE_KEYS if args.figure == "all" else (args.figure,)
    try:
        for key in keys:
            for path in emit_figure_data(args.run_dir, key):
                logger.info("wrote %s", path)
    except InputFileError as exc:
        logger.error("cannot read input: %s", exc)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        logger.error("cannot write figure data: %s", exc)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "synth":
        return _cmd_synth(args)
    return _cmd_figures(args)


if __name__ == "__main__":
    sys.exit(main())
