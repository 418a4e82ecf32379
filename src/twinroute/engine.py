"""Run orchestration: traffic in, per-strategy route tables, scored outcomes out.

Each scored timestep the engine builds the ground-truth topology from the
actual snapshot, asks the strategy driver for the route table currently in
force, and checks every connected vehicle's assignment against the ground
truth. Drivers differ only in where their tables come from:

- real-time: a fresh table every step, computed from the snapshot
  ``latency_delta`` seconds ago (zero latency means the current one);
- predictive: a route schedule planned every ``prediction.interval``
  seconds from (possibly lagged) history, applied without further
  contact until the next planning epoch;
- conventional: the real-time computation on the epoch snapshot (no
  latency), frozen for ``conventional_update_interval`` seconds.

Real-time and conventional share one periodic driver: (period, lag) of
(1 step, latency) and (update interval, 0).

Several variants can share one run's traffic and ground-truth graphs;
every piece is a pure function of (config, seed), so results are identical
to running each variant alone.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Iterator

from .config import ScenarioConfig, validate_config
from .metrics import (
    ReliabilityAccumulator,
    RunResult,
    TimestepOutcome,
    write_detail,
)
from .mobility import snapshot_stream
from .model import NodeId, Strategy, WorldSnapshot, delay_to_steps, seconds_to_steps
from .prediction import make_predictor
from .routing import (
    ROUTE_DUMP_HEADER,
    PredictivePlan,
    RouteTable,
    dump_route_table,
    route_predictive,
    route_realtime,
    score_route,
)
from .topology import TOPOLOGY_DUMP_HEADER, ConnectivityGraph, build_topology, dump_topology


class ConfigError(ValueError):
    """Raised when a run is attempted with an invalid configuration."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class _SharedWorld:
    """Per-step context shared by all variants of one run."""

    def __init__(self, config: ScenarioConfig, history_steps: int):
        self.config = config
        self.history: deque[WorldSnapshot] = deque(maxlen=history_steps)
        self.graphs: dict[int, ConnectivityGraph] = {}
        self._graph_keep = history_steps

    def push(self, snap: WorldSnapshot) -> None:
        self.history.append(snap)
        stale = [ts for ts in self.graphs if ts < snap.timestep - self._graph_keep]
        for ts in stale:
            del self.graphs[ts]

    def snapshot_at(self, timestep: int) -> WorldSnapshot:
        """Snapshot for ``timestep``, or the oldest retained one if older."""
        oldest = self.history[0]
        if timestep <= oldest.timestep:
            return oldest
        for snap in reversed(self.history):
            if snap.timestep <= timestep:
                return snap
        return oldest

    def graph_at(self, timestep: int) -> ConnectivityGraph:
        snap = self.snapshot_at(timestep)
        g = self.graphs.get(snap.timestep)
        if g is None:
            g = build_topology(snap, self.config.channel, self.config.link_budget_db)
            self.graphs[snap.timestep] = g
        return g


class _Driver:
    """Produces the route table in force at each scored timestep."""

    def __init__(self, config: ScenarioConfig, lag: int):
        self.config = config
        self.lag = lag

    def table_for(self, timestep: int, world: _SharedWorld) -> RouteTable | None:
        raise NotImplementedError

    def prediction_stats(self) -> tuple[float | None, int]:
        return None, 0


class _PeriodicDriver(_Driver):
    """Routes the snapshot ``lag`` steps old and holds the table ``period`` steps."""

    def __init__(self, config: ScenarioConfig, period: int, lag: int):
        super().__init__(config, lag)
        self.period = period
        self._table: RouteTable | None = None
        self._next_update: int | None = None

    def table_for(self, timestep: int, world: _SharedWorld) -> RouteTable:
        if self._next_update is None or timestep >= self._next_update:
            snap = world.snapshot_at(timestep - self.lag)
            graph = world.graph_at(timestep - self.lag)
            demands = {v.id for v in snap.connected_vehicles()}
            self._table = route_realtime(
                snap,
                demands,
                self.config.channel,
                self.config.link_budget_db,
                self.config.max_hops,
                graph=graph,
            )
            self._next_update = timestep + self.period
        return self._table


class _PredictiveDriver(_Driver):
    def __init__(self, config: ScenarioConfig):
        super().__init__(config, delay_to_steps(config.latency_delta, config.dt))
        self.interval_steps = seconds_to_steps(config.prediction.interval, config.dt)
        self.predictor = make_predictor(
            config.prediction.predictor, config.prediction.learned_command
        )
        self._plan: PredictivePlan | None = None
        self._next_epoch: int | None = None
        self._error_sum = 0.0
        self._error_count = 0
        self._fallbacks = 0

    def _replan(self, now: int, world: _SharedWorld) -> None:
        cfg = self.config
        window_steps = seconds_to_steps(cfg.prediction.history_window, cfg.dt)
        newest = now - self.lag
        history = [s for s in world.history if s.timestep <= newest][-(window_steps + 1):]
        if not history:
            history = [world.history[0]]
        self._plan = route_predictive(
            history,
            now,
            cfg.prediction.horizon,
            cfg.prediction.interval,
            self.predictor,
            cfg.dt,
            cfg.channel,
            cfg.link_budget_db,
            cfg.max_hops,
        )
        self._fallbacks += self._plan.degraded_tracks

    def table_for(self, timestep: int, world: _SharedWorld) -> RouteTable | None:
        # plan one step ahead of application so the schedule covers this step
        if self._next_epoch is None:
            self._replan(timestep - 1, world)
            self._next_epoch = timestep - 1 + self.interval_steps
        elif timestep > self._next_epoch:
            self._replan(self._next_epoch, world)
            self._next_epoch += self.interval_steps
        return self._plan.table_for(timestep) if self._plan else None

    def observe_truth(self, snap: WorldSnapshot) -> None:
        if self._plan is None:
            return
        for vid, track in self._plan.tracks.items():
            predicted = track.state_at(snap.timestep)
            if predicted is None:
                continue
            actual = snap.vehicle(vid)
            if actual is None:
                continue
            dx = predicted.position[0] - actual.position[0]
            dy = predicted.position[1] - actual.position[1]
            self._error_sum += (dx * dx + dy * dy) ** 0.5
            self._error_count += 1

    def prediction_stats(self) -> tuple[float | None, int]:
        mean = self._error_sum / self._error_count if self._error_count else None
        return mean, self._fallbacks


def _make_driver(config: ScenarioConfig) -> _Driver:
    if config.strategy is Strategy.REALTIME:
        return _PeriodicDriver(config, 1, delay_to_steps(config.latency_delta, config.dt))
    if config.strategy is Strategy.CONVENTIONAL:
        period = seconds_to_steps(config.conventional_update_interval, config.dt)
        return _PeriodicDriver(config, period, 0)
    return _PredictiveDriver(config)


def _score(
    table: RouteTable | None, truth: ConnectivityGraph, snap: WorldSnapshot
) -> TimestepOutcome:
    per_vehicle: dict[NodeId, bool] = {}
    satisfied = 0
    hop_total = 0
    for v in sorted(snap.connected_vehicles(), key=lambda v: v.id.sort_key):
        route = table.assignments.get(v.id) if table else None
        ok = score_route(route, truth)
        per_vehicle[v.id] = ok
        if ok:
            satisfied += 1
            hop_total += route.hop_count
    total = len(per_vehicle)
    mean_hops = hop_total / satisfied if satisfied else 0.0
    return TimestepOutcome(snap.timestep, total, satisfied, per_vehicle, mean_hops)


_TRAFFIC_FIELDS = (
    "seed",
    "duration",
    "dt",
    "vehicle_count",
    "connected_fraction",
    "intersection",
    "speed",
    "mobility",
    "vehicle_mix",
    "channel",
    "link_budget_db",
)


def run_variants(
    variants: dict[str, ScenarioConfig],
    snapshots: Iterable[WorldSnapshot] | None = None,
    route_dump: IO[str] | None = None,
    topology_dump: IO[str] | None = None,
) -> dict[str, RunResult]:
    """Run several strategy variants over one shared world.

    All variants must agree on every field that shapes the traffic or the
    ground-truth channel; they may differ in strategy, latency, prediction
    settings, the conventional update interval and the hop cap. When
    ``snapshots`` is given it replaces generated traffic. The first
    snapshot only seeds the twin's history; every later one is scored.
    """
    if not variants:
        raise ValueError("no variants to run")
    configs = list(variants.values())
    base = configs[0]
    for cfg in configs:
        report = validate_config(cfg)
        if not report.ok:
            raise ConfigError(report)
        for fld in _TRAFFIC_FIELDS:
            if getattr(cfg, fld) != getattr(base, fld):
                raise ValueError(f"variants disagree on shared field {fld!r}")

    if snapshots is None:
        stream: Iterator[WorldSnapshot] = iter(snapshot_stream(base))
    else:
        stream = iter(snapshots)

    max_lag = max(delay_to_steps(cfg.latency_delta, cfg.dt) for cfg in configs)
    window = max(
        seconds_to_steps(cfg.prediction.history_window, cfg.dt) for cfg in configs
    )
    world = _SharedWorld(base, history_steps=max_lag + window + 2)

    drivers = {name: _make_driver(cfg) for name, cfg in variants.items()}
    accumulators = {name: ReliabilityAccumulator() for name in variants}

    if route_dump is not None:
        route_dump.write(ROUTE_DUMP_HEADER)
    if topology_dump is not None:
        topology_dump.write(TOPOLOGY_DUMP_HEADER)

    first = next(stream, None)
    if first is None:
        raise ValueError("empty snapshot stream")
    world.push(first)

    def score_step(snap: WorldSnapshot) -> None:
        truth = world.graph_at(snap.timestep)
        if topology_dump is not None:
            dump_topology(truth, topology_dump)
        for name, driver in drivers.items():
            table = driver.table_for(snap.timestep, world)
            if isinstance(driver, _PredictiveDriver):
                driver.observe_truth(snap)
            outcome = _score(table, truth, snap)
            accumulators[name].record(outcome)
            if route_dump is not None and table is not None:
                dump_route_table(table, truth, snap.timestep, route_dump)

    for snap in stream:
        world.push(snap)
        score_step(snap)

    results: dict[str, RunResult] = {}
    for name, cfg in variants.items():
        acc = accumulators[name]
        err_mean, fallbacks = drivers[name].prediction_stats()
        results[name] = RunResult(
            config_digest=cfg.digest(),
            strategy=cfg.strategy.value,
            reliability=acc.reliability(),
            outcomes=acc.outcomes,
            prediction_error_mean=err_mean,
            prediction_fallbacks=fallbacks,
        )
    return results


def run_single(
    config: ScenarioConfig,
    route_dump: IO[str] | None = None,
    topology_dump: IO[str] | None = None,
) -> RunResult:
    """Execute one full run of the configured strategy.

    Bitwise deterministic for a fixed (config, seed).
    """
    results = run_variants(
        {"run": config}, route_dump=route_dump, topology_dump=topology_dump
    )
    return results["run"]


def run_replay(
    config: ScenarioConfig,
    snapshots: Iterable[WorldSnapshot],
    route_dump: IO[str] | None = None,
    topology_dump: IO[str] | None = None,
) -> RunResult:
    """Score an externally produced snapshot stream with the configured strategy.

    The first snapshot seeds the twin's history; every later one is scored,
    mirroring how generated runs treat their initial state.
    """
    results = run_variants(
        {"run": config},
        snapshots=snapshots,
        route_dump=route_dump,
        topology_dump=topology_dump,
    )
    return results["run"]


def write_run_outputs(
    result: RunResult, config: ScenarioConfig, out_dir: str | Path, cell_id: str
) -> Path:
    """Write detail/<cell>.csv and return its path."""
    out = Path(out_dir)
    detail_dir = out / "detail"
    detail_dir.mkdir(parents=True, exist_ok=True)
    detail_path = detail_dir / f"{cell_id}.csv"
    with open(detail_path, "w", encoding="utf-8", newline="") as f:
        write_detail(result, f)
    return detail_path


def log(msg: str) -> None:
    """Progress/diagnostics go to stderr; data stays on stdout and files."""
    print(msg, file=sys.stderr)
