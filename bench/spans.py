"""In-memory span tracer that wraps entroport's public functions from outside.

Each public function of each layer module is replaced, in its defining module
and in every entroport module that imported it by name, by a wrapper that
records a span (name, start, end, parent, run id) and a few counts taken from
its arguments and return value. Spans stay in memory and are written out once
the traced process ends. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

#: layer modules, in pipeline order; each becomes a span-name prefix
LAYER_MODULES = ("config", "series", "synth", "returns_vol", "dma_cluster",
                 "portfolio", "pipeline")

#: public methods traced besides module-level functions: span name -> (module, class, attr)
METHODS = {"synth.generate": ("synth", "GeneratorSpec", "generate")}

#: spans the per-layer metrics read; any that cannot be installed is reported absent
EXPECTED = (
    "config.load_config", "series.parse_ticks", "series.resample",
    "series.slice_horizon", "synth.generate", "returns_vol.linear_returns",
    "returns_vol.log_returns", "returns_vol.rolling_volatility",
    "dma_cluster.extract_clusters", "dma_cluster.crossing_times",
    "dma_cluster.moving_average", "dma_cluster.cluster_distribution",
    "dma_cluster.entropy_curve", "dma_cluster.entropy_index",
    "portfolio.max_sharpe_weights", "portfolio.cluster_entropy_weights",
    "portfolio.weight_entropy", "portfolio.kl_cross_entropy",
    "pipeline.run_pipeline",
)

# counts taken at a span boundary: span name -> (counter, f(args, result))
COUNTS = {
    "series.parse_ticks": ("series.ticks", lambda a, r: len(r)),
    "synth.generate": ("synth.samples", lambda a, r: len(r)),
    "returns_vol.rolling_volatility": ("returns_vol.vol_samples", lambda a, r: len(r)),
    "dma_cluster.crossing_times": ("dma_cluster.samples_scanned", lambda a, r: len(a[0])),
    "dma_cluster.extract_clusters": ("dma_cluster.clusters", lambda a, r: len(r)),
    "dma_cluster.cluster_distribution": ("dma_cluster.bins", lambda a, r: len(r.counts)),
    "pipeline.run_pipeline": ("pipeline.cells", lambda a, r: len(r.cells)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None       # index into the span list, None at top level
    run: str
    error: str | None = None  # exception class name when the call raised


class Tracer:
    """Collects spans and counts for one process; single-threaded use only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.uncounted: set[str] = set()
        self.installed: list[str] = []
        self.run = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.run)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                counter, measure = count
                try:
                    self.counts[counter] += measure(args, result)
                except (AttributeError, IndexError, TypeError):
                    # a later signature no longer carries this count
                    self.uncounted.add(counter)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        package = {name: mod for name, mod in list(sys.modules.items())
                   if name == "entroport" or name.startswith("entroport.")}
        for short in LAYER_MODULES:
            mod = package.get(f"entroport.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for other in package.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)
                self.installed.append(f"{short}.{attr}")
        for name, (short, cls_name, attr) in METHODS.items():
            cls = getattr(package.get(f"entroport.{short}"), cls_name, None)
            fn = getattr(cls, attr, None)
            if inspect.isfunction(fn):
                setattr(cls, attr, self.wrap(name, fn))
                self.installed.append(name)

    def absent(self) -> list[str]:
        return sorted(set(EXPECTED) - set(self.installed))

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts),
                "uncounted": sorted(self.uncounted),
                "absent": self.absent()}


class RecordCounter(logging.Handler):
    """Counts log records whose message contains a marker (e.g. ridge events)."""

    def __init__(self, marker: str):
        super().__init__(level=logging.DEBUG)
        self.marker = marker
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if self.marker in record.getMessage():
            self.count += 1


# --- reading spans back ------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded, so a span's children never overlap and their
    durations can be summed.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def subtree(spans: list[dict], root: int) -> list[int]:
    """Indices of root and all its descendants; children follow their parent."""
    keep = {root}
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in keep:
            keep.add(i)
    return sorted(keep)


def unaccounted(spans: list[dict], name: str) -> float:
    """Duration of the `name` spans minus the self times of their subtrees (0 when exact)."""
    selfs = self_times(spans)
    return sum(spans[i]["end"] - spans[i]["start"]
               - sum(selfs[j] for j in subtree(spans, i))
               for i, s in enumerate(spans) if s["name"] == name)


def total(spans: list[dict], names, run: str = "analyze") -> float:
    names = {names} if isinstance(names, str) else set(names)
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] in names and s["run"] == run)


def calls(spans: list[dict], name: str, run: str = "analyze", error: str | None = None) -> int:
    return sum(1 for s in spans if s["name"] == name and s["run"] == run
               and (error is None or s["error"] == error))
