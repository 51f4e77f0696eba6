"""Command line interface: the analyze subcommand.

The subcommand's handler only raises; main maps what it raises to an exit
code: 0 success, 2 invalid config or data (including a delta that is not a
finite whole number of nanoseconds >= 1, sample times outside int64
nanoseconds, or an empty sweep), an output path that cannot be written, or
running out of memory or address space, 3 a missing or unreadable input
file, 4 insufficient cluster statistics for a whole asset.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import read_config
from .errors import ConfigError, EntroportError, InputFileError, InsufficientClustersError
from .pipeline import run_pipeline

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
    return parser


def _cmd_analyze(args) -> None:
    cfg, config_bytes = read_config(args.config)  # the manifest hashes the bytes parsed
    args.out = cfg.output_dir  # named by main if a write fails
    result = run_pipeline(cfg, config_bytes=config_bytes)
    logger.info("wrote outputs to %s (%d warnings)", cfg.output_dir,
                len(result.warnings))


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
    # a ValueError or MemoryError that no check turned into a named error
    # still ends in exit 2, not a traceback
    except (EntroportError, ValueError) as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as InputFileError, so this is a write
        logger.error("cannot write outputs to %s: %s", args.out, exc)
        return EXIT_CONFIG
    except MemoryError as exc:
        logger.error("out of memory: %s", exc)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
