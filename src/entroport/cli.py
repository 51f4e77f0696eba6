"""Command line interface: analyze / synth / figures subcommands.

Each subcommand handler only raises; main maps what it raises to an exit
code: 0 success, 2 invalid config or data (including a delta that is not a
finite whole number of nanoseconds >= 1, sample times outside int64
nanoseconds, or an empty sweep), an output path that cannot be written, or
running out of memory, 3 a missing or unreadable input file, 4 insufficient
cluster statistics for a whole asset.
"""

from __future__ import annotations

import argparse
import logging
import sys
from datetime import date
from pathlib import Path

from .config import read_config
from .errors import (ConfigError, DataError, EntroportError, InputFileError,
                     InsufficientClustersError)
from .pipeline import FIGURE_KEYS, emit_figure_data, run_pipeline
from .series import check_sample_times, date_ns, seconds_to_ns, write_series_csv
from .synth import GENERATOR_PARAMS, GeneratorSpec

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
    p_an.set_defaults(run=_cmd_analyze)

    p_sy = sub.add_parser("synth", help="emit one synthetic series as a cache CSV")
    p_sy.add_argument("--kind", required=True, choices=list(GENERATOR_PARAMS))
    p_sy.add_argument("--length", required=True, type=int)
    p_sy.add_argument("--seed", required=True, type=int)
    for kind, params in GENERATOR_PARAMS.items():
        for param in params:
            p_sy.add_argument(f"--{param}", type=float, help=f"{kind} {param}")
    p_sy.add_argument("--delta-s", type=float, default=1.0,
                      help="sampling interval in seconds (default 1)")
    p_sy.add_argument("--start", type=date.fromisoformat, default=date(2018, 1, 1),
                      help="UTC start date of the series (default 2018-01-01)")
    p_sy.add_argument("--out", required=True, type=Path, help="output CSV path")
    p_sy.set_defaults(run=_cmd_synth)

    p_fig = sub.add_parser("figures", help="reshape a run directory into plot-ready CSVs")
    p_fig.add_argument("run_dir", type=Path)
    p_fig.add_argument("--figure", choices=list(FIGURE_KEYS) + ["all"], default="all")
    p_fig.set_defaults(run=_cmd_figures)
    return parser


def _cmd_analyze(args) -> None:
    cfg, config_bytes = read_config(args.config)  # the manifest hashes the bytes parsed
    args.out = cfg.output_dir  # named by main if a write fails
    result = run_pipeline(cfg, config_bytes=config_bytes)
    logger.info("wrote outputs to %s (%d warnings)", cfg.output_dir,
                len(result.warnings))


def _cmd_synth(args) -> None:
    params = {p: getattr(args, p) for p in GENERATOR_PARAMS[args.kind]}
    if None in params.values():
        raise DataError(f"{'/'.join('--' + p for p in params)} "
                        f"{'is' if len(params) == 1 else 'are'} required for {args.kind}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    spec = GeneratorSpec(kind=args.kind, length=args.length, seed=args.seed, **params)
    start_ns = date_ns(args.start)
    delta = seconds_to_ns(args.delta_s, "--delta-s")
    check_sample_times(start_ns, delta, args.length,
                       f"--start {args.start} at --delta-s {args.delta_s}")
    series = spec.generate(delta=delta, start_time=start_ns)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_series_csv(series, args.out)
    logger.info("wrote %d samples to %s", len(series), args.out)


def _cmd_figures(args) -> None:
    args.out = args.run_dir / "figures"  # named by main if a write fails
    for key in FIGURE_KEYS if args.figure == "all" else (args.figure,):
        for path in emit_figure_data(args.run_dir, key):
            logger.info("wrote %s", path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        args.run(args)
    except InsufficientClustersError as exc:
        logger.error("%s", exc)
        return EXIT_INSUFFICIENT
    except InputFileError as exc:
        logger.error("cannot read input: %s", exc)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        logger.error("invalid config: %s", exc)
        return EXIT_CONFIG
    except (EntroportError, ValueError) as exc:  # figures: ValueError for a malformed run
        logger.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as InputFileError, so this is a write
        logger.error("cannot write outputs to %s: %s", args.out, exc)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. synth --length beyond the address space
        logger.error("out of memory: %s", exc)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
