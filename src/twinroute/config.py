"""Scenario configuration: schema, YAML round-trip, and validation.

A scenario file is a UTF-8 YAML mapping whose keys mirror the field names
below one-to-one. Unknown keys anywhere in the tree are rejected at load
time so typos fail fast instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import io
import json
import math
import re
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, get_args, get_origin, get_type_hints

import yaml

from .channel import BlockageClass, ChannelParams, default_channel_params
from .model import Strategy, ValidationReport
from .prediction import PREDICTORS
from .trace import COORDINATE_BOUND


@dataclass(frozen=True)
class IntersectionGeometry:
    arm_length: float = 100.0
    lane_count: int = 1
    lane_width: float = 3.5
    rsu_height: float = 5.0


@dataclass(frozen=True)
class SpeedRange:
    min: float = 8.0
    max: float = 14.0


@dataclass(frozen=True)
class PredictionConfig:
    # Each epoch plans only the ``interval`` it applies, so nothing reads
    # ``horizon``. It stays, and must still be >= interval, because every
    # config_digest in summary.csv covers it: dropping it changes bytes.
    horizon: float = 2.0
    interval: float = 2.0
    predictor: str = "constant_velocity"  # hold | constant_velocity | constant_turn_rate | learned
    history_window: float = 2.0
    learned_command: tuple[str, ...] | None = None


@dataclass(frozen=True)
class MobilityConfig:
    min_gap: float = 7.0  # center-to-center, same lane
    spawn_window: float = 10.0  # seconds over which initial spawns stagger


@dataclass(frozen=True)
class VehicleClassSpec:
    """One body type in the traffic mix, drawn per spawn by weight."""

    name: str
    length: float
    width: float
    height: float
    antenna_height: float
    weight: float


# Sedans alone would never occlude anything (every antenna would sit above
# every roof), so the default mix includes taller vans and trucks whose
# bodies shadow antenna sight lines.
DEFAULT_VEHICLE_MIX = (
    VehicleClassSpec("sedan", 4.5, 1.8, 1.5, 1.6, 0.7),
    VehicleClassSpec("van", 5.0, 1.9, 2.2, 2.3, 0.15),
    VehicleClassSpec("truck", 8.0, 2.5, 3.2, 3.3, 0.15),
)

@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    duration: float = 600.0
    dt: float = 0.1
    vehicle_count: int = 30
    connected_fraction: float = 1.0
    intersection: IntersectionGeometry = field(default_factory=IntersectionGeometry)
    speed: SpeedRange = field(default_factory=SpeedRange)
    channel: ChannelParams = field(default_factory=default_channel_params)
    link_budget_db: float = 110.0
    strategy: Strategy = Strategy.REALTIME
    latency_delta: float = 0.0
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    conventional_update_interval: float = 5.0
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    vehicle_mix: tuple[VehicleClassSpec, ...] = DEFAULT_VEHICLE_MIX
    max_hops: int | None = None  # route length cap; None = unbounded

    def digest(self) -> str:
        """Stable content hash identifying this exact configuration."""
        payload = json.dumps(config_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def default_config(**overrides: Any) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


# ---------------------------------------------------------------------------
# type-driven dict <-> dataclass codec; every error names its field path


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _optional_inner(tp: Any) -> Any:
    """``X`` for an ``X | None`` annotation, else None."""
    if get_origin(tp) is types.UnionType:
        return next(a for a in get_args(tp) if a is not type(None))
    return None


def _decode(tp: Any, raw: Any, path: str, default: Any = None) -> Any:
    """``raw`` as a value of type ``tp``; ``default`` fills absent dataclass fields."""
    inner = _optional_inner(tp)
    if inner is not None:
        return None if raw is None else _decode(inner, raw, path, default)
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ValueError(f"{path or 'configuration root'}: must be a mapping")
        names = [f.name for f in dataclasses.fields(tp)]
        unknown = sorted(_join(path, str(k)) for k in raw if k not in names)
        if unknown:
            raise ValueError(f"unknown configuration key(s): {', '.join(unknown)}")
        hints = get_type_hints(tp)
        values = {}
        for name in names:
            sub = _join(path, name)
            if name in raw:
                values[name] = _decode(hints[name], raw[name], sub, getattr(default, name, None))
            elif default is not None:
                values[name] = getattr(default, name)
            elif _optional_inner(hints[name]) is not None:
                values[name] = None
            else:
                raise ValueError(f"{sub}: required")
        return tp(**values)
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"{path}: must be a list")
        item = get_args(tp)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(raw))
    if issubclass(tp, enum.Enum):
        try:
            return tp(str(raw).lower())
        except ValueError:
            allowed = [m.value for m in tp]
            raise ValueError(f"{path}: must be one of {allowed}, got {raw!r}") from None
    kinds = (str,) if tp is str else (int, float)
    fractional = tp is int and isinstance(raw, float) and not raw.is_integer()
    if isinstance(raw, bool) or not isinstance(raw, kinds) or fractional:
        kind = {str: "a string", int: "an integer", float: "a number"}[tp]
        raise ValueError(f"{path}: must be {kind}, got {raw!r}")
    return tp(raw)


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    return _encode(cfg)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    return _decode(ScenarioConfig, data, "", ScenarioConfig())


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2's exponent floats, such as
    ``1e-9`` or ``6.02E23``, which the YAML 1.1 resolver leaves strings.
    It runs after the built-in resolvers, so whatever they resolve is
    unchanged, and a quoted scalar stays a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def read_yaml(path: str | Path) -> Any:
    """The document in the YAML file at ``path``; malformed YAML raises
    ValueError naming the file, with the parser's line and column, and a
    file that is not UTF-8 one naming the file, the byte, its offset in
    the file and its 1-based line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: not UTF-8: line {line}: {exc}") from None
    stream = io.StringIO(text)
    stream.name = str(path)  # the parser's marks name the file
    try:
        return yaml.load(stream, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: malformed YAML: {exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    data = read_yaml(path)
    # an empty document is a mistake, not a request for the default scenario
    return config_from_dict(data)


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=False)


# ---------------------------------------------------------------------------
# validation


def _non_finite(value: Any, path: str) -> Iterator[str]:
    """Paths of the non-finite floats in an encoded configuration."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _non_finite(v, _join(path, key))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path


def validate_config(cfg: ScenarioConfig) -> ValidationReport:
    """Check every scenario invariant; pure, returns violations as data."""
    bad = [(path, "must be finite") for path in _non_finite(config_to_dict(cfg), "")]

    def check(ok: bool, path: str, msg: str) -> None:
        if not ok:
            bad.append((path, msg))

    check(0 <= cfg.seed < 2**64, "seed", "must fit an unsigned 64-bit integer")
    check(cfg.dt > 0, "dt", "must be > 0")
    if cfg.dt > 0:
        check(cfg.duration >= cfg.dt, "duration", "must be >= dt")
        check(
            cfg.conventional_update_interval >= cfg.dt,
            "conventional_update_interval",
            "must be >= dt",
        )
        check(cfg.prediction.interval >= cfg.dt, "prediction.interval", "must be >= dt")
    # a scenario with no connected vehicle has no route to score
    check(cfg.vehicle_count >= 1, "vehicle_count", "must be >= 1")
    # traffic draws every vehicle before the first step and scans each one
    # not yet released at every step, so a huge count stalls the run
    check(cfg.vehicle_count <= 10_000, "vehicle_count", "must be <= 10000")
    check(0.0 < cfg.connected_fraction <= 1.0, "connected_fraction", "must be within (0, 1]")
    check(
        cfg.prediction.horizon >= cfg.prediction.interval,
        "prediction.horizon",
        "must be >= prediction.interval",
    )
    check(
        cfg.prediction.predictor in PREDICTORS,
        "prediction.predictor",
        f"must be one of {tuple(PREDICTORS)}",
    )
    if cfg.prediction.predictor == "learned":
        check(
            bool(cfg.prediction.learned_command),
            "prediction.learned_command",
            "required when predictor is 'learned'",
        )
    check(cfg.prediction.history_window > 0, "prediction.history_window", "must be > 0")
    check(cfg.latency_delta >= 0, "latency_delta", "must be >= 0")
    check(cfg.intersection.arm_length > 0, "intersection.arm_length", "must be > 0")
    check(cfg.intersection.lane_count >= 1, "intersection.lane_count", "must be >= 1")
    check(cfg.intersection.lane_width > 0, "intersection.lane_width", "must be > 0")
    check(cfg.intersection.rsu_height > 0, "intersection.rsu_height", "must be > 0")
    check(cfg.speed.min > 0, "speed.min", "must be > 0")
    check(cfg.speed.max >= cfg.speed.min, "speed.max", "must be >= speed.min")
    check(cfg.link_budget_db > 0, "link_budget_db", "must be > 0")
    check(cfg.mobility.min_gap > 0, "mobility.min_gap", "must be > 0")
    geo = cfg.intersection
    if geo.arm_length > 0 and geo.lane_width > 0:
        # the extent arm_length + lane_count * lane_width bounds every generated
        # coordinate, give or take a turn radius; the quotient cannot overflow
        fits = geo.lane_count <= (COORDINATE_BOUND - geo.arm_length) / geo.lane_width
        check(fits, "intersection.arm_length", "plus lane_count * lane_width must be <= 2**510")
        if fits:  # coordinates round in steps of about 2**-52 of the extent
            extent = geo.arm_length + geo.lane_count * geo.lane_width
            msg = "must be >= 1e-9 * (arm_length + lane_count * lane_width)"
            check(cfg.mobility.min_gap >= 1e-9 * extent, "mobility.min_gap", msg)
    check(cfg.mobility.spawn_window >= 0, "mobility.spawn_window", "must be >= 0")
    check(cfg.max_hops is None or cfg.max_hops >= 1, "max_hops", "must be >= 1 or null")

    for path, msg in cfg.channel.problems():
        bad.append((f"channel.{path}", msg))

    check(bool(cfg.vehicle_mix), "vehicle_mix", "must not be empty")
    total_weight = sum(v.weight for v in cfg.vehicle_mix)
    check(total_weight > 0, "vehicle_mix", "weights must sum to a positive value")
    for i, v in enumerate(cfg.vehicle_mix):
        check(
            min(v.length, v.width, v.height) > 0,
            f"vehicle_mix[{i}]",
            "dimensions must be positive",
        )
        check(v.weight >= 0, f"vehicle_mix[{i}].weight", "must be >= 0")
        check(
            0 < v.antenna_height <= v.height + 1.0,
            f"vehicle_mix[{i}].antenna_height",
            "must be within (0, height + 1]",
        )

    return ValidationReport(tuple(bad))
