"""One measured sample: a fresh interpreter that sets up and runs one `analyze`.

Usage: python3 bench/child.py CONFIG RESULT_JSON [SPANS_JSON]

Run with the working directory where the outputs should land (the workload
configs use the relative output_dir 'out'). Set-up is the import of
entroport's CLI plus one load_config of CONFIG, timed from a fresh
interpreter as a user pays it. The reference kernel (calib.py) is timed just
before and just after the `analyze`, so run.py can scale the sample's times
to the host's speed at that moment. With SPANS_JSON, public functions are
traced (see spans.py) and the spans are written there when the process ends.
"""

import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import entroport.cli  # noqa: E402  (timed: this is the user's import cost)

t_import = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402


def main() -> int:
    config, result_path = sys.argv[1], Path(sys.argv[2])
    spans_path = Path(sys.argv[3]) if len(sys.argv) > 3 else None
    src = Path(ROOT, "src").resolve()
    if not Path(entroport.cli.__file__).resolve().is_relative_to(src):
        print(f"entroport imported from {entroport.cli.__file__}, not {src}",
              file=sys.stderr)
        return 1

    tracer = ridge = None
    if spans_path is not None:
        from spans import RecordCounter, Tracer
        tracer = Tracer()
        tracer.install()
        ridge = RecordCounter("ridge")
        logging.getLogger("entroport.portfolio").addHandler(ridge)

    t_load = time.perf_counter()
    entroport.config.load_config(config)
    t_setup = time.perf_counter()

    calib.kernel_seconds(1)                      # warm-up, untimed
    kernel_before = calib.kernel_seconds()

    if tracer is not None:
        tracer.run = "analyze"
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t_run = time.perf_counter()
    code = entroport.cli.main(["analyze", config])
    t_end = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    kernel_after = calib.kernel_seconds()

    import numpy
    import scipy
    result = {
        "exit_code": code,
        "import_s": t_import - t0,
        "setup_s": (t_import - t0) + (t_setup - t_load),
        "run_s": t_end - t_run,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,   # Linux reports KiB
        "kernel_s": [kernel_before, kernel_after],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        trace = tracer.to_json()
        trace["ridge_events"] = ridge.count
        spans_path.write_text(json.dumps(trace))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
