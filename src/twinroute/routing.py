"""Routing strategies and the ground-truth route checker.

All three strategies assign each demanding vehicle a simple path to the
RSU over a connectivity graph; they differ only in which snapshot that
graph comes from and how often it is rebuilt (the engine owns the
cadence). Route choice minimizes hop count first, total path loss second,
and breaks remaining exact ties by the lexicographically smallest node
sequence, so results are deterministic and order-independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .channel import ChannelParams
from .model import NodeId, NodeKind, VehicleState, WorldSnapshot
from .prediction import HoldPredictor, PredictedTrack, TrajectoryPredictor, predict
from .topology import ConnectivityGraph, build_topology


@dataclass(frozen=True)
class Route:
    """Simple path from a demanding vehicle to the RSU."""

    source: NodeId
    hops: tuple[NodeId, ...]
    computed_for_timestep: int

    def __post_init__(self) -> None:
        if not self.hops or self.hops[0] != self.source:
            raise ValueError("route must start at its source")
        if self.hops[-1].kind is not NodeKind.RSU:
            raise ValueError("route must end at the RSU")
        if len(set(self.hops)) != len(self.hops):
            raise ValueError("route must be a simple path")

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1


@dataclass(frozen=True)
class RouteTable:
    """Per-vehicle assignments issued by one routing pass.

    Keys are exactly the demanding vehicles alive when the table was
    issued; a None value means no path to the RSU existed.
    """

    assignments: dict[NodeId, Route | None]
    issued_at_timestep: int


def shortest_route(
    graph: ConnectivityGraph, source: NodeId, max_hops: int | None = None
) -> Route | None:
    """Minimum-hop route from ``source`` to the RSU, or None if unreachable.

    Ties on hop count fall to total path loss (summed source-first), then
    to the lexicographically smallest node sequence. ``max_hops`` caps the
    path length when set.
    """
    if not graph.has_node(source):
        raise ValueError(f"source {source} not in graph")
    if source.kind is NodeKind.RSU:
        raise ValueError("source must be a vehicle node")
    rsu = NodeId.rsu()

    # A direct edge is always optimal: any other route costs >= 2 hops.
    if graph.has_edge(source, rsu):
        return Route(source, (source, rsu), graph.timestep)
    if max_hops is not None and max_hops <= 1:
        return None

    # Dijkstra on labels (hops, loss, path); every edge strictly increases
    # the first component, so settle-once order is exact for the full
    # lexicographic objective, including the path tie-break.
    start_label = (0, 0.0, (source.sort_key,))
    heap: list[tuple[int, float, tuple, NodeId]] = [(*start_label, source)]
    settled: set[NodeId] = set()
    paths: dict[NodeId, tuple[NodeId, ...]] = {source: (source,)}
    best: dict[NodeId, tuple[int, float, tuple]] = {source: start_label}

    while heap:
        hops, loss, key_path, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == rsu:
            return Route(source, paths[node], graph.timestep)
        if max_hops is not None and hops >= max_hops:
            continue
        for neighbor, edge_loss in graph.neighbors(node):
            if neighbor in settled:
                continue
            label = (hops + 1, loss + edge_loss, key_path + (neighbor.sort_key,))
            if neighbor not in best or label < best[neighbor]:
                best[neighbor] = label
                paths[neighbor] = paths[node] + (neighbor,)
                heapq.heappush(heap, (*label, neighbor))
    return None


def _route_all(
    graph: ConnectivityGraph,
    demands: Iterable[NodeId],
    issued_at: int,
    max_hops: int | None,
) -> RouteTable:
    assignments: dict[NodeId, Route | None] = {}
    for vehicle in sorted(demands, key=lambda n: n.sort_key):
        assignments[vehicle] = shortest_route(graph, vehicle, max_hops)
    return RouteTable(assignments, issued_at)


def route_realtime(
    snapshot_at: WorldSnapshot,
    demands: set[NodeId],
    params: ChannelParams,
    budget_db: float,
    max_hops: int | None = None,
    graph: ConnectivityGraph | None = None,
) -> RouteTable:
    """Route every demanding vehicle on the topology of ``snapshot_at``.

    The engine decides which snapshot this is: with a control-plane
    latency the snapshot lags the scoring time, so the issued table may
    already be stale when it is applied.
    """
    connected = {v.id for v in snapshot_at.connected_vehicles()}
    if not demands <= connected:
        raise ValueError("demands must be connected vehicles present in the snapshot")
    if graph is None:
        graph = build_topology(snapshot_at, params, budget_db)
    return _route_all(graph, demands, snapshot_at.timestep, max_hops)


@dataclass(frozen=True)
class PredictivePlan:
    """Route schedule for one planning epoch plus its diagnostics."""

    entries: tuple[tuple[int, RouteTable], ...]
    tracks: dict[NodeId, PredictedTrack] = field(default_factory=dict)
    degraded_tracks: int = 0

    def table_for(self, timestep: int) -> RouteTable | None:
        for ts, table in self.entries:
            if ts == timestep:
                return table
        return None


def route_predictive(
    history: Sequence[WorldSnapshot],
    now: int,
    horizon: float,
    interval: float,
    predictor: TrajectoryPredictor,
    dt: float,
    params: ChannelParams,
    budget_db: float,
    max_hops: int | None = None,
) -> PredictivePlan:
    """Plan routes for every timestep across the horizon, in advance.

    The history may lag ``now`` (control-plane latency shifts only the
    planning input); prediction bridges the lag and extends through the
    horizon. Every vehicle in the last observed snapshot is forecast,
    unconnected ones included since their bodies still occlude. A vehicle
    whose predictor fails falls back to holding its last observed state
    and is counted in ``degraded_tracks``.
    """
    if not history:
        raise ValueError("history must contain at least one snapshot")
    if horizon < interval:
        raise ValueError("horizon must cover at least one planning interval")
    last = history[-1]
    horizon_steps = max(1, int(horizon / dt + 1e-9))
    lag_steps = now - last.timestep
    if lag_steps < 0:
        raise ValueError("history extends past the planning time")
    total_steps = horizon_steps + lag_steps

    tracks: dict[NodeId, PredictedTrack] = {}
    degraded = 0
    for vehicle in last.vehicles:
        states = [
            snap_vehicle
            for snap in history
            if (snap_vehicle := snap.vehicle(vehicle.id)) is not None
        ]
        try:
            track = predict(
                states, total_steps * dt, dt, predictor, last_timestep=last.timestep
            )
        except Exception:
            track = predict(
                states[-1:], total_steps * dt, dt, HoldPredictor(), last_timestep=last.timestep
            )
            track = PredictedTrack(track.vehicle, track.states, degraded=True)
        if track.degraded:
            degraded += 1
        tracks[vehicle.id] = track

    entries: list[tuple[int, RouteTable]] = []
    for step in range(1, horizon_steps + 1):
        future_ts = now + step
        vehicles = []
        for vehicle in last.vehicles:
            state = tracks[vehicle.id].state_at(future_ts)
            if state is None:
                continue
            vehicles.append(
                VehicleState(
                    id=vehicle.id,
                    position=state.position,
                    heading=state.heading,
                    speed=state.speed,
                    dimensions=vehicle.dimensions,
                    antenna_height=vehicle.antenna_height,
                    connected=vehicle.connected,
                )
            )
        future_snap = WorldSnapshot(
            timestep=future_ts,
            sim_time=future_ts * dt,
            vehicles=tuple(vehicles),
            rsu_position=last.rsu_position,
        )
        graph = build_topology(future_snap, params, budget_db)
        demands = {v.id for v in future_snap.connected_vehicles()}
        entries.append((future_ts, _route_all(graph, demands, now, max_hops)))

    return PredictivePlan(tuple(entries), tracks, degraded)


def score_route(route: Route | None, ground_truth: ConnectivityGraph) -> bool:
    """True iff the route exists and every hop holds in the ground truth."""
    if route is None:
        return False
    for node in route.hops:
        if not ground_truth.has_node(node):
            return False
    for a, b in zip(route.hops, route.hops[1:]):
        if not ground_truth.has_edge(a, b):
            return False
    return True


ROUTE_DUMP_HEADER = "timestep,vehicle,hops,valid\n"


def dump_route_table(
    table: RouteTable, ground_truth: ConnectivityGraph, timestep: int, out: IO[str]
) -> None:
    for vehicle in sorted(table.assignments, key=lambda n: n.sort_key):
        route = table.assignments[vehicle]
        hops = ">".join(str(h) for h in route.hops) if route else ""
        valid = int(score_route(route, ground_truth))
        out.write(f"{timestep},{vehicle},{hops},{valid}\n")
