"""Pipeline configuration: JSON schema, validation, physical-to-sample conversion.

All physical quantities in the config file are in seconds and must divide
evenly by the sampling interval; non-divisible values are rejected rather
than rounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .errors import ConfigError
from .series import NS_PER_S
from .synth import GeneratorSpec

DEFAULT_N_GRID_S = {"min": 25, "max": 200, "step": 25}
DEFAULT_VOLATILITY_WINDOWS_S = [180, 360, 720]
DEFAULT_HORIZONS = list(range(1, 13))

# every key a config file may use; any other key is rejected
_TOP_LEVEL_KEYS = {"assets", "delta_s", "year_start", "n_grid_s", "volatility_windows_s",
                   "horizons", "entropy_estimator", "entropy_source", "threshold_m",
                   "aggregation", "min_clusters", "horizon_mode", "return_kind",
                   "output_dir"}
_ASSET_KEYS = {"name", "ticks", "synth"}
_N_GRID_KEYS = {"min", "max", "step"}
_SYNTH_KEYS = {"kind", "length", "seed", "price_scale"}
#: generator kind -> its float parameters, which a synth spec adds to _SYNTH_KEYS
_GENERATOR_PARAMS = {"fbm": ("hurst",), "arfima": ("d",),
                     "garch": ("omega", "alpha", "beta")}


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
    n_grid_s: tuple[int, ...]
    volatility_windows_s: tuple[int, ...]
    horizons: tuple[int, ...]
    entropy_estimator: str = "surprisal"
    entropy_source: str = "volatility"
    threshold_m: str | int = "n"
    aggregation: str = "sum"
    min_clusters: int = 50
    horizon_mode: str = "expanding"
    return_kind: str = "simple"
    output_dir: Path = field(default_factory=lambda: Path("out"))

    @property
    def delta_ns(self) -> int:
        return int(round(self.delta_s * NS_PER_S))

    def n_grid_samples(self) -> tuple[int, ...]:
        return tuple(self._to_samples(n, "n grid value") for n in self.n_grid_s)

    def window_samples(self, t_s: int) -> int:
        return self._to_samples(t_s, "volatility window")

    def _to_samples(self, seconds: float, what: str) -> int:
        span = seconds * NS_PER_S
        if span % self.delta_ns != 0:
            raise ConfigError(f"{what} {seconds}s is not a multiple of delta "
                              f"{self.delta_s}s")
        return int(span // self.delta_ns)

    def validate(self) -> None:
        if len(self.assets) < 1:
            raise ConfigError("at least one asset is required")
        names = [a.name for a in self.assets]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate asset names in {names}")
        if self.delta_s <= 0:
            raise ConfigError("delta_s must be positive")
        n_samples = self.n_grid_samples()
        if any(n < 2 for n in n_samples):
            raise ConfigError(f"n grid in samples must be >= 2, got {n_samples}")
        for key in ("horizons", "volatility_windows_s"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key}: duplicate entries in {list(values)}")
        for t in self.volatility_windows_s:
            if self.window_samples(t) < 2:
                raise ConfigError(f"volatility window {t}s spans < 2 samples")
        if not self.horizons:
            raise ConfigError("at least one horizon is required")
        if any(not 1 <= m <= 12 for m in self.horizons):
            raise ConfigError(f"horizons must lie in [1, 12], got {self.horizons}")
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
                or (isinstance(self.threshold_m, int) and self.threshold_m >= 1)):
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


def _parse_generator(name: str, spec: dict) -> GeneratorSpec:
    try:
        kind = spec["kind"]
        length = int(spec["length"])
        seed = int(spec["seed"])
    except KeyError as exc:
        raise ConfigError(f"asset {name!r}: synth spec missing {exc}") from None
    params = _GENERATOR_PARAMS.get(kind)
    if params is None:
        raise ConfigError(f"asset {name!r}: unknown generator kind {kind!r}")
    _check_keys(spec, _SYNTH_KEYS.union(params), f"asset {name!r} synth")
    return GeneratorSpec(kind=kind, length=length, seed=seed,
                         **{p: float(spec[p]) for p in params})


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a JSON pipeline config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(raw, base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_LEVEL_KEYS, "top level")
    base = base_dir or Path(".")
    try:
        assets = []
        for entry in raw["assets"]:
            name = entry["name"]
            _check_keys(entry, _ASSET_KEYS, f"asset {name!r}")
            ticks, synth = entry.get("ticks"), entry.get("synth")
            # AssetInput rejects an entry with both or neither
            assets.append(AssetInput(
                name=name,
                ticks_path=None if ticks is None else base / ticks,
                generator=None if synth is None else _parse_generator(name, synth),
                price_scale=float((synth or {}).get("price_scale", 0.001))))
        grid = raw.get("n_grid_s", DEFAULT_N_GRID_S)
        _check_keys(grid, _N_GRID_KEYS, "n_grid_s")
        n_grid = tuple(range(int(grid["min"]), int(grid["max"]) + 1, int(grid["step"])))
        cfg = PipelineConfig(
            assets=tuple(assets),
            delta_s=float(raw["delta_s"]),
            year_start=date.fromisoformat(raw["year_start"]),
            n_grid_s=n_grid,
            volatility_windows_s=tuple(int(t) for t in raw.get(
                "volatility_windows_s", DEFAULT_VOLATILITY_WINDOWS_S)),
            horizons=tuple(int(m) for m in raw.get("horizons", DEFAULT_HORIZONS)),
            entropy_estimator=raw.get("entropy_estimator", "surprisal"),
            entropy_source=raw.get("entropy_source", "volatility"),
            threshold_m=raw.get("threshold_m", "n"),
            aggregation=raw.get("aggregation", "sum"),
            min_clusters=int(raw.get("min_clusters", 50)),
            horizon_mode=raw.get("horizon_mode", "expanding"),
            return_kind=raw.get("return_kind", "simple"),
            output_dir=Path(raw.get("output_dir", "out")),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc!r}") from None
    cfg.validate()
    return cfg
