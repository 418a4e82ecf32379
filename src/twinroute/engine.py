"""Run orchestration: traffic in, per-strategy route tables, scored outcomes out.

Each scored timestep the engine builds the ground-truth topology from the
actual snapshot, asks the strategy's driver for the route table currently
in force, and checks every connected vehicle's assignment against the
ground truth. A table maps each routed vehicle to its hops, source first
and RSU last. One driver serves every strategy: it holds a window of
tables, a dict from timestep to table, and asks its planner for the
next window at the first scored step ``t`` the current one does not
cover. Strategies differ only in their planner:

- real-time: routes, at every step, the snapshot ``latency_delta``
  seconds before ``t`` (zero latency means the current one);
- conventional: routes the current snapshot and holds that table
  ``conventional_update_interval`` seconds; it has no latency;
- predictive: planned at ``t - 1`` from the history that ends
  ``latency_delta`` seconds earlier, one forecast table per step of
  ``prediction.interval``, each routed on the graph of that step's
  forecast poses.

A step older than the oldest retained snapshot reads that snapshot.

The real-time and conventional planners keep the table in force, the
graph it was routed on, and the first step past its interval; each
call returns a one-step window of that table, which keeps the graph. A
table scored against that same graph object, as real-time at zero
latency is at every step and conventional at its replan step, is valid
by construction: its routes are counted, not walked hop by hop.

The engine reads one consecutive snapshot stream, as the mobility twin
produces it: each timestep is one more than the last, so a past step is
found by its offset from the oldest retained snapshot. Outcomes keep
counts per step, not per vehicle.

A truth build costs mostly a fixed number of numpy calls, so when the
engine generates the traffic itself it reads the stream ``READ_AHEAD``
snapshots ahead and builds the graphs of each run of consecutive
snapshots with equal fleets and one RSU in one ``build_topologies``
call. Traffic hands one fleet object to all snapshots of a vehicle set,
so comparing fleets is mostly an identity check. A stream
handed in (a replayed trace, a run that writes its trace) is read one
snapshot at a time, as the twin receives a live feed: no snapshot is read
before every step ahead of it is scored. Each graph equals the one its
snapshot builds alone, so reading ahead changes no output.

Several variants can share one run's traffic and ground-truth graphs;
every piece is a pure function of (config, seed), so results are identical
to running each variant alone.

The engine opens no files: it returns ``RunResult``s and writes the
optional route and topology dumps to streams its caller opened.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import deque
from itertools import islice
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .config import ScenarioConfig, validate_config
from .metrics import RunResult, TimestepOutcome, reliability
from .mobility import snapshot_stream
from .model import Strategy, WorldSnapshot, delay_to_steps, seconds_to_steps
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
from .topology import TOPOLOGY_DUMP_HEADER, ConnectivityGraph, build_topologies, dump_topology


class ConfigError(ValueError):
    """Raised when a run is attempted with an invalid configuration."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


# How many snapshots of the traffic the engine generates itself it holds
# unscored, the next one to score included. Most of a truth build's cost
# is a fixed number of numpy calls whatever its size, so the engine builds
# the graphs of a run of snapshots with one vehicle set in one call. With
# six, in 60 s runs on a 2-core shared host, a truth build took 70-80 us
# per step instead of 260-290 at 10 vehicles, and 120-140 instead of
# 320-400 at 20. Once the buffer is full one snapshot is read per scored
# step, so no step waits for more than one generation.
READ_AHEAD = 6


def _same_vehicles(a: WorldSnapshot, b: WorldSnapshot) -> bool:
    """Whether ``b`` is the step after ``a`` with the same fleet and RSU:
    one truth build serves both."""
    return (
        b.timestep == a.timestep + 1
        and a.rsu_position == b.rsu_position
        and a.fleet == b.fleet
    )


class _SharedWorld:
    """Per-step context shared by all variants of one run: the newest
    ``history_steps`` snapshots of a consecutive stream, and their graphs.

    It reads the stream through a buffer of up to ``read_ahead``
    snapshots, the next one to score included, and builds the truth graph
    of a snapshot together with those of the unbuilt snapshots after it
    that share its vehicles."""

    def __init__(
        self,
        config: ScenarioConfig,
        history_steps: int,
        stream: Iterator[WorldSnapshot],
        read_ahead: int,
    ):
        self.config = config
        # trimmed by hand: a deque's maxlen must fit a C ssize_t, and a
        # finite latency or history window may not
        self.history: deque[WorldSnapshot] = deque()
        self.history_steps = history_steps
        self.graphs: dict[int, ConnectivityGraph] = {}
        self.stream = stream
        self.read_ahead = read_ahead
        self.ahead: deque[WorldSnapshot] = deque()  # read, not yet pushed

    def next_snapshot(self) -> WorldSnapshot | None:
        """The next snapshot of the stream, or None at its end; the buffer
        is topped up first, so after it fills one snapshot is read per call."""
        while len(self.ahead) < self.read_ahead:
            snap = next(self.stream, None)
            if snap is None:
                break
            self.ahead.append(snap)
        return self.ahead.popleft() if self.ahead else None

    def push(self, snap: WorldSnapshot) -> None:
        self.history.append(snap)
        if len(self.history) > self.history_steps:
            self.history.popleft()
        self.graphs.pop(snap.timestep - self.history_steps, None)

    def window(self, last: int, steps: int) -> list[WorldSnapshot]:
        """The snapshots of the ``steps`` timesteps up to ``last``, oldest
        first: a step older than the oldest retained snapshot reads that one."""
        end = max(last - self.history[0].timestep, 0) + 1
        return list(islice(self.history, max(end - steps, 0), end))

    def graph_at(self, timestep: int) -> ConnectivityGraph:
        (snap,) = self.window(timestep, 1)
        g = self.graphs.get(snap.timestep)
        if g is None:
            # an unbuilt snapshot is the newest pushed one, whose successors
            # in ``ahead`` are all unbuilt, or the seed, whose successor was
            # pushed and built first, so nothing in ``ahead`` follows it
            run = [snap]
            for nxt in self.ahead:
                if not _same_vehicles(run[-1], nxt):
                    break
                run.append(nxt)
            try:
                graphs = self._build(run)
            except Exception as exc:
                exc.variant = None  # the shared ground truth, whichever driver asked
                raise
            self.graphs.update((built.timestep, built) for built in graphs)
            g = graphs[0]
        return g

    def _build(self, run: list[WorldSnapshot]) -> list[ConnectivityGraph]:
        """The truth graphs of ``run``; when a later step's build fails, only
        the first is built, so an error surfaces at the step it belongs to."""
        config = self.config
        xy_yaw = np.stack([s.xy_yaw for s in run])
        timesteps = [s.timestep for s in run]
        try:
            return build_topologies(run[0], timesteps, xy_yaw, config.channel, config.link_budget_db)
        except Exception:
            if len(run) == 1:
                raise
            return self._build(run[:1])


class _Driver:
    """Applies the current window of tables and plans the next at the first
    scored step it does not cover; measures how far each scored snapshot
    lies from the window's forecast, where it has one."""

    def __init__(self, plan: Callable[[int, _SharedWorld], PredictivePlan], history_steps: int):
        self.plan = plan  # the window of tables that starts at a scored step
        self.history_steps = history_steps  # the snapshots the planner reads
        self._window = PredictivePlan({}, (), {})
        self._error_sum = 0.0
        self._error_count = 0
        self._fallbacks = 0

    def table_for(self, timestep: int, world: _SharedWorld) -> RouteTable:
        if timestep not in self._window.entries:
            self._window = self.plan(timestep, world)
            self._fallbacks += self._window.degraded_tracks
        forecast = self._window.forecast.get(timestep)
        if forecast is not None:
            snap = world.history[-1]
            row = snap.fleet.row
            poses = snap.xy_yaw.tolist()
            # per vehicle, in forecast order, in Python floats
            for vehicle, (x, y, _) in zip(self._window.ids, forecast.tolist()):
                k = row.get(vehicle)
                if k is not None:
                    dx = x - poses[k][0]
                    dy = y - poses[k][1]
                    self._error_sum += (dx * dx + dy * dy) ** 0.5
                    self._error_count += 1
        return self._window.entries[timestep]

    def prediction_stats(self) -> tuple[float | None, int]:
        mean = self._error_sum / self._error_count if self._error_count else None
        return mean, self._fallbacks


def _make_driver(config: ScenarioConfig) -> _Driver:
    lag = delay_to_steps(config.latency_delta, config.dt)
    if config.strategy is Strategy.PREDICTIVE:
        pred = config.prediction
        window = seconds_to_steps(pred.history_window, config.dt)
        steps = seconds_to_steps(pred.interval, config.dt)
        predictor = make_predictor(pred.predictor, pred.learned_command)

        def plan_forecast(timestep: int, world: _SharedWorld) -> PredictivePlan:
            # planned at t - 1 from the history up to t - 1 - lag, for t ... t - 1 + interval
            history = world.window(timestep - 1 - lag, window + 1)
            return route_predictive(
                history, timestep - 1, steps, predictor, config.dt, config.channel,
                config.link_budget_db, config.max_hops,
            )

        return _Driver(plan_forecast, lag + window + 2)

    steps = 1
    if config.strategy is Strategy.CONVENTIONAL:
        steps, lag = seconds_to_steps(config.conventional_update_interval, config.dt), 0

    table = graph = stop = None  # the table in force, its graph, the first step past its interval

    def plan_held(timestep: int, world: _SharedWorld) -> PredictivePlan:
        nonlocal table, graph, stop
        if stop is None or timestep >= stop:
            graph = world.graph_at(timestep - lag)
            table = route_realtime(graph, config.max_hops)
            stop = timestep + steps
        return PredictivePlan({timestep: table}, (), {}, graph=graph)

    return _Driver(plan_held, lag + 1)


def _score(
    table: RouteTable,
    truth: ConnectivityGraph,
    timestep: int,
    routed_on: ConnectivityGraph | None,
) -> TimestepOutcome:
    """Check the route of every connected vehicle, the nodes after the RSU.

    ``routed_on`` is the graph the table was routed on, where the window
    keeps it. A table routed on ``truth`` itself holds exactly ``truth``'s
    vehicle nodes, and every hop of its routes is one of ``truth``'s links
    by construction, so its routes are counted, not walked."""
    sources = truth.nodes[1:]
    if routed_on is truth:
        routes = [route for route in table.values() if route is not None]
        satisfied = len(routes)
        hop_total = sum(map(len, routes)) - satisfied
    else:
        satisfied = hop_total = 0
        for node in sources:
            route = table.get(node)
            if score_route(route, truth):
                satisfied += 1
                hop_total += len(route) - 1
    mean_hops = hop_total / satisfied if satisfied else 0.0
    return TimestepOutcome(timestep, len(sources), satisfied, mean_hops)


# the fields a variant may set; every other field shapes the shared traffic
# or ground-truth channel, so all variants must agree on it
_VARIANT_FIELDS = {"strategy", "latency_delta", "prediction", "conventional_update_interval", "max_hops"}
_SHARED_FIELDS = tuple(
    f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in _VARIANT_FIELDS
)


def run_variants(
    variants: dict[str, ScenarioConfig],
    snapshots: Iterable[WorldSnapshot] | None = None,
    route_dump: IO[str] | None = None,
    topology_dump: IO[str] | None = None,
) -> dict[str, RunResult]:
    """Run several strategy variants over one shared world.

    Variants may differ in strategy, latency, prediction settings, the
    conventional update interval and the hop cap; every other field
    shapes the traffic or the ground-truth channel, so all must agree on
    it. When ``snapshots`` is given it replaces generated traffic and is
    read one snapshot at a time; generated traffic is read up to
    ``READ_AHEAD`` snapshots ahead. The first snapshot only seeds the
    twin's history; every later one is scored. Each snapshot's timestep
    must be one more than the previous one's; otherwise ValueError names
    both.

    An exception raised by one variant's driver propagates unchanged but
    for a ``variant`` attribute naming that variant; one raised building
    a ground-truth graph has ``variant`` None, and one from the snapshot
    stream has none.
    """
    if not variants:
        raise ValueError("no variants to run")
    configs = list(variants.values())
    base = configs[0]
    for cfg in configs:
        report = validate_config(cfg)
        if not report.ok:
            raise ConfigError(report)
        for fld in _SHARED_FIELDS:
            if getattr(cfg, fld) != getattr(base, fld):
                raise ValueError(f"variants disagree on shared field {fld!r}")

    # generated traffic is read a few snapshots ahead; a stream handed in
    # is read one snapshot at a time, as the twin receives a live feed
    if snapshots is None:
        stream, read_ahead = iter(snapshot_stream(base)), READ_AHEAD
    else:
        stream, read_ahead = iter(snapshots), 1

    drivers = {name: _make_driver(cfg) for name, cfg in variants.items()}
    history_steps = max(d.history_steps for d in drivers.values())
    world = _SharedWorld(base, history_steps, stream, read_ahead)
    outcomes: dict[str, list[TimestepOutcome]] = {name: [] for name in variants}

    if route_dump is not None:
        route_dump.write(ROUTE_DUMP_HEADER)
    if topology_dump is not None:
        topology_dump.write(TOPOLOGY_DUMP_HEADER)

    first = world.next_snapshot()
    if first is None:
        raise ValueError("empty snapshot stream")
    world.push(first)

    def score_step(snap: WorldSnapshot) -> None:
        truth = world.graph_at(snap.timestep)
        if topology_dump is not None:
            dump_topology(truth, topology_dump)
        for name, driver in drivers.items():
            try:
                table = driver.table_for(snap.timestep, world)
            except Exception as exc:
                if not hasattr(exc, "variant"):
                    exc.variant = name
                raise
            outcomes[name].append(_score(table, truth, snap.timestep, driver._window.graph))
            if route_dump is not None:
                dump_route_table(table, truth, snap.timestep, route_dump)

    while (snap := world.next_snapshot()) is not None:
        previous = world.history[-1].timestep
        if snap.timestep != previous + 1:
            raise ValueError(f"timestep {snap.timestep} does not follow {previous}")
        world.push(snap)
        score_step(snap)

    results: dict[str, RunResult] = {}
    for name, cfg in variants.items():
        err_mean, fallbacks = drivers[name].prediction_stats()
        results[name] = RunResult(
            config_digest=cfg.digest(),
            strategy=cfg.strategy.value,
            reliability=reliability(outcomes[name]),
            outcomes=outcomes[name],
            prediction_error_mean=err_mean,
            prediction_fallbacks=fallbacks,
        )
    return results


def run_single(
    config: ScenarioConfig,
    snapshots: Iterable[WorldSnapshot] | None = None,
    route_dump: IO[str] | None = None,
    topology_dump: IO[str] | None = None,
) -> RunResult:
    """Execute one full run of the configured strategy.

    ``snapshots``, when given, replace generated traffic: the first one
    seeds the twin's history and every later one, at the next timestep, is
    scored. Bitwise deterministic for a fixed (config, seed) or snapshot
    stream.
    """
    results = run_variants(
        {"run": config},
        snapshots=snapshots,
        route_dump=route_dump,
        topology_dump=topology_dump,
    )
    return results["run"]


def log(msg: str) -> None:
    """Progress/diagnostics go to stderr; data stays on stdout and files."""
    print(msg, file=sys.stderr)
