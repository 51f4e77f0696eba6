"""Regenerate reference/<workload>/*.csv.gz from one run at the recorded seed.

Usage: python3 bench/make_reference.py [WORKLOAD ...]   (default: all)

Only for a change that is meant to alter the outputs; say in CHANGES.md
which bytes changed and why.
"""

import gzip
import sys
import time

import check
import run
from workloads import WORKLOADS, inputs_digest, prepare_inputs


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        config = prepare_inputs(name, run.RECORDED_SEED, run.WORK / "inputs")
        run_dir = run.WORK / "runs" / f"{name}-reference"
        run_dir.mkdir(parents=True, exist_ok=True)
        sample = run.run_sample(config, run_dir, False, time.monotonic() + 600)
        if sample["problems"]:
            print(f"{name}: {sample['problems']}", file=sys.stderr)
            return 1
        dest = run.REFERENCE_DIR / name
        dest.mkdir(parents=True, exist_ok=True)
        for csv in check.OUTPUT_CSVS:
            data = (run_dir / "out" / csv).read_bytes()
            (dest / f"{csv}.gz").write_bytes(gzip.compress(data, 9, mtime=0))
        (dest / "inputs.sha256").write_text(inputs_digest(config) + "\n")
        print(f"{name}: wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
