"""Pipeline configuration: JSON schema, validation, physical-to-sample conversion.

All physical quantities in the config file are in seconds. Each span (an
n grid value, a volatility window) must be a whole number of sampling
intervals, at least 2 (series.whole_samples); others are rejected rather
than rounded. Integer fields take JSON integers (or floats with no
fractional part), float fields take JSON numbers; a boolean, a string (or,
for an integer field, a fractional number) is rejected naming the key.
Asset names are non-empty printable strings without ',', '/' or '\\', so
that they fit a CSV field and a file name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from datetime import date
from functools import partial
from pathlib import Path

from .dma_cluster import MIN_CLUSTERS
from .errors import ConfigError, InputFileError
from .series import check_sample_times, date_ns, month_start_ns, seconds_to_ns, whole_samples
from .synth import GENERATOR_PARAMS, GeneratorSpec

_ASSET_KEYS = {"name", "ticks", "synth"}
_N_GRID_KEYS = {"min", "max", "step"}
#: a synth spec may also give its kind's GENERATOR_PARAMS
_SYNTH_KEYS = {"kind", "length", "seed", "price_scale"}


@dataclass(frozen=True)
class AssetInput:
    """One asset: either a tick CSV path or a synthetic generator spec."""

    name: str
    ticks_path: Path | None = None
    generator: GeneratorSpec | None = None
    price_scale: float = 0.001

    def __post_init__(self):
        if (self.ticks_path is None) == (self.generator is None):
            raise ConfigError(f"asset {self.name!r}: exactly one of 'ticks' or "
                              f"'synth' must be given")


@dataclass(frozen=True)
class PipelineConfig:
    assets: tuple[AssetInput, ...]
    delta_s: float
    year_start: date
    n_grid_s: tuple[int, ...] = tuple(range(25, 201, 25))
    volatility_windows_s: tuple[int, ...] = (180, 360, 720)
    horizons: tuple[int, ...] = tuple(range(1, 13))
    entropy_estimator: str = "surprisal"
    entropy_source: str = "volatility"
    threshold_m: str | int = "n"
    aggregation: str = "sum"
    min_clusters: int = MIN_CLUSTERS
    horizon_mode: str = "expanding"
    return_kind: str = "simple"
    output_dir: Path = field(default_factory=lambda: Path("out"))

    @property
    def delta_ns(self) -> int:
        return seconds_to_ns(self.delta_s, "delta_s")

    def n_grid_samples(self) -> tuple[int, ...]:
        return tuple(whole_samples(n, self.delta_ns, "n grid value") for n in self.n_grid_s)

    def validate(self) -> None:
        if len(self.assets) < 1:
            raise ConfigError("at least one asset is required")
        names = [a.name for a in self.assets]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate asset names in {names}")
        for key in ("n_grid_s", "volatility_windows_s", "horizons"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key}: no values to sweep")
            if len(set(values)) != len(values):
                raise ConfigError(f"{key}: duplicate entries in {list(values)}")
        if any(not 1 <= m <= 12 for m in self.horizons):
            raise ConfigError(f"horizons must lie in [1, 12], got {self.horizons}")
        if self.year_start.day != 1:
            raise ConfigError(f"year_start {self.year_start} must be the first of a month")
        delta_ns = self.delta_ns
        start_ns = date_ns(self.year_start)
        grid = f"year_start {self.year_start} at delta_s {self.delta_s}"
        # the first step before the end boundary, which for a year_start past
        # int64 may lie beyond datetime's year 9999
        check_sample_times(start_ns, delta_ns, 2, grid)
        end_ns = month_start_ns(self.year_start, max(self.horizons))
        check_sample_times(start_ns, end_ns - start_ns, 2, grid)
        for a in self.assets:
            if a.generator is not None:
                check_sample_times(start_ns, delta_ns, a.generator.length,
                                   f"{grid} for {a.generator.length} samples of {a.name!r}")
        self.n_grid_samples()  # each value whole samples, >= 2, like each window
        for t in self.volatility_windows_s:
            whole_samples(t, delta_ns, "volatility window")
        if self.entropy_estimator not in ("surprisal", "shannon_term"):
            raise ConfigError(f"unknown entropy_estimator {self.entropy_estimator!r}")
        if self.entropy_source not in ("volatility", "return"):
            raise ConfigError(f"unknown entropy_source {self.entropy_source!r}")
        if self.aggregation not in ("sum", "mean"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.horizon_mode not in ("expanding", "monthly"):
            raise ConfigError(f"unknown horizon_mode {self.horizon_mode!r}")
        if self.return_kind not in ("simple", "log"):
            raise ConfigError(f"unknown return_kind {self.return_kind!r}")
        if not (self.threshold_m == "n"
                or (type(self.threshold_m) is int and self.threshold_m >= 1)):
            raise ConfigError(f"threshold_m must be 'n' or a positive integer, "
                              f"got {self.threshold_m!r}")
        if self.min_clusters < 1:
            raise ConfigError("min_clusters must be >= 1")

    def threshold_for(self, n: int) -> int:
        return n if self.threshold_m == "n" else int(self.threshold_m)


def _check_keys(entry: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _synth_fields(name: str, spec: dict) -> dict:
    """AssetInput fields of a synth spec: its generator, and price_scale if given."""
    try:
        kind = spec["kind"]
        length = _int(spec["length"], f"asset {name!r} synth length")
        seed = _int(spec["seed"], f"asset {name!r} synth seed")
    except KeyError as exc:
        raise ConfigError(f"asset {name!r}: synth spec missing {exc}") from None
    if seed < 0:
        raise ConfigError(f"asset {name!r} synth seed: must be >= 0, got {seed}")
    params = GENERATOR_PARAMS.get(kind)
    if params is None:
        raise ConfigError(f"asset {name!r}: unknown generator kind {kind!r}")
    _check_keys(spec, _SYNTH_KEYS.union(params), f"asset {name!r} synth")
    where = f"asset {name!r} synth"
    out = {"generator": GeneratorSpec(kind=kind, length=length, seed=seed, **{
        p: _float(spec[p], f"{where} {p}") for p in params})}
    if "price_scale" in spec:
        scale = out["price_scale"] = _float(spec["price_scale"], f"{where} price_scale")
        if not 0 < scale < math.inf:
            raise ConfigError(f"{where} price_scale: must be finite and > 0, got {scale!r}")
    return out


def _parse_asset(entry: dict, base: Path) -> AssetInput:
    name = entry["name"]
    if not (type(name) is str and name and name.isprintable()
            and not set(name) & set(",/\\")):
        raise ConfigError(f"asset {name!r}: name must be a non-empty printable "
                          f"string without ',', '/' or '\\'")
    _check_keys(entry, _ASSET_KEYS, f"asset {name!r}")
    ticks, synth = entry.get("ticks"), entry.get("synth")
    # AssetInput rejects an entry with both or neither
    return AssetInput(name=name, ticks_path=None if ticks is None else base / ticks,
                      **({} if synth is None else _synth_fields(name, synth)))


def _int(value, key: str) -> int:
    """A JSON integer, or a float with no fractional part, as an int; else a ConfigError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _float(value, key: str) -> float:
    """A JSON number as a float; else (a boolean, a string) a ConfigError."""
    if type(value) in (int, float):
        return float(value)
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def _threshold(value) -> str | int:
    """threshold_m: "n", or an integer parsed as _int parses one."""
    return value if value == "n" else _int(value, "threshold_m")


def _n_grid(grid: dict) -> tuple[int, ...]:
    _check_keys(grid, _N_GRID_KEYS, "n_grid_s")
    lo, hi, step = (_int(grid[k], f"n_grid_s.{k}") for k in ("min", "max", "step"))
    if step < 1:
        raise ConfigError(f"n_grid_s.step: must be >= 1, got {step}")
    return tuple(range(lo, hi + 1, step))


def _int_tuple(values, key: str) -> tuple[int, ...]:
    return tuple(_int(v, key) for v in values)


#: config key -> parser of its JSON value; other keys are taken as given, and
#: a key left out takes its PipelineConfig default
_PARSERS = {"delta_s": partial(_float, key="delta_s"), "year_start": date.fromisoformat,
            "n_grid_s": _n_grid,
            "volatility_windows_s": partial(_int_tuple, key="volatility_windows_s"),
            "horizons": partial(_int_tuple, key="horizons"),
            "min_clusters": partial(_int, key="min_clusters"), "threshold_m": _threshold,
            "output_dir": Path}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a JSON pipeline config file."""
    return read_config(path)[0]


def read_config(path: str | Path) -> tuple[PipelineConfig, bytes]:
    """load_config(path), and the bytes it parsed: the file is read once."""
    path = Path(path)
    try:
        data = path.read_bytes()
        raw = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise InputFileError(f"config {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(raw, base_dir=path.parent), data


def config_from_dict(raw: dict, base_dir: Path | None = None) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, {f.name for f in fields(PipelineConfig)}, "top level")
    base = base_dir or Path(".")
    try:
        assets = tuple(_parse_asset(entry, base) for entry in raw["assets"])
        cfg = PipelineConfig(assets=assets, **{
            key: _PARSERS.get(key, lambda v: v)(value)
            for key, value in raw.items() if key != "assets"})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc!r}") from None
    cfg.validate()
    return cfg
