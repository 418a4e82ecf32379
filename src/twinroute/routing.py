"""Routing strategies and the ground-truth route checker.

All three strategies assign each connected vehicle a simple path to the
RSU over a connectivity graph; they differ only in which snapshot that
graph comes from and how often it is rebuilt (the engine owns the
cadence). Route choice minimizes hop count first, total path loss second,
and breaks remaining exact ties by the lexicographically smallest node
sequence, so results are deterministic and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

from .channel import ChannelParams
from .model import NodeId, NodeKind, WorldSnapshot, seconds_to_steps
from .prediction import TrajectoryPredictor, predict
from .topology import ConnectivityGraph, build_topologies


@dataclass(frozen=True)
class Route:
    """Simple path from a connected vehicle to the RSU."""

    source: NodeId
    hops: tuple[NodeId, ...]

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


# One routing pass: every vehicle node of the graph, in node order; None
# means no path to the RSU existed.
RouteTable = dict[NodeId, Route | None]


def _hop_layers(graph: ConnectivityGraph) -> tuple[list[int | None], list[list[tuple[int, float]]]]:
    """BFS hop depth of every node from the RSU (None if unreachable), and
    per node its (neighbour, loss) pairs one layer closer to the RSU."""
    adjacency = graph.adjacency
    depth: list[int | None] = [None] * len(adjacency)
    depth[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if depth[v] is None:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    down = [
        [(v, loss) for v, loss in nbrs.items() if depth[v] == depth[u] - 1] if depth[u] else []
        for u, nbrs in enumerate(adjacency)
    ]
    return depth, down


def _route_from(
    graph: ConnectivityGraph,
    source: int,
    depth: list[int | None],
    down: list[list[tuple[int, float]]],
    max_hops: int | None,
) -> Route | None:
    """Best route from node index ``source`` over the hop-layer DAG.

    Every min-hop path steps one layer closer to the RSU per hop. A
    Dijkstra search on (hops, loss, path) labels from the source settles
    each such layer before the next, so a node's label there is the
    minimum over its neighbours one layer back, which is what each sweep
    below takes. Labels are (loss summed source-first, index path), and
    index order is sort_key order, so the route equals that search's.
    """
    hops = depth[source]
    if hops is None or (max_hops is not None and hops > max(max_hops, 1)):
        return None
    labels = {source: (0.0, (source,))}
    for _ in range(hops):
        nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
        for u, (loss, path) in labels.items():
            for v, edge_loss in down[u]:
                label = (loss + edge_loss, path + (v,))
                best = nxt.get(v)
                if best is None or label < best:
                    nxt[v] = label
        labels = nxt
    nodes = graph.nodes
    return Route(nodes[source], tuple(nodes[k] for k in labels[0][1]))


def shortest_route(
    graph: ConnectivityGraph, source: NodeId, max_hops: int | None = None
) -> Route | None:
    """Minimum-hop route from ``source`` to the RSU, or None if unreachable.

    Ties on hop count fall to total path loss (summed source-first), then
    to the lexicographically smallest node sequence. ``max_hops`` caps the
    path length when set; a direct link to the RSU is always allowed.
    """
    k = graph.index.get(source)
    if k is None:
        raise ValueError(f"source {source} not in graph")
    if k == 0:
        raise ValueError("source must be a vehicle node")
    depth, down = _hop_layers(graph)
    return _route_from(graph, k, depth, down, max_hops)


def route_realtime(graph: ConnectivityGraph, max_hops: int | None = None) -> RouteTable:
    """Route every vehicle node of ``graph`` to the RSU, in node order.

    The graph's nodes are the connected vehicles of the snapshot it was
    built from. The engine decides which snapshot that is: with a
    control-plane latency it lags the scoring time, so the table may
    already be stale when it is applied.
    """
    depth, down = _hop_layers(graph)
    nodes = graph.nodes
    return {nodes[k]: _route_from(graph, k, depth, down, max_hops) for k in range(1, len(nodes))}


@dataclass(frozen=True)
class PredictivePlan:
    """Route schedule for one planning epoch: per future timestep, the
    forecast snapshot and the route table computed from it."""

    entries: dict[int, RouteTable]
    forecast: dict[int, WorldSnapshot]
    degraded_tracks: int = 0


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
    whose predictor lacks history or fails holds its last observed state
    and is counted in ``degraded_tracks``. The forecast snapshots share
    one vehicle tuple, so one :func:`build_topologies` call builds the
    whole horizon's graphs.
    """
    if not history:
        raise ValueError("history must contain at least one snapshot")
    if horizon < interval:
        raise ValueError("horizon must cover at least one planning interval")
    last = history[-1]
    horizon_steps = seconds_to_steps(horizon, dt)
    lag_steps = now - last.timestep
    if lag_steps < 0:
        raise ValueError("history extends past the planning time")

    observed = [{v.id: v for v in snap.vehicles} for snap in history]
    tracks = [
        predict(
            [seen[vehicle.id] for seen in observed if vehicle.id in seen],
            (horizon_steps + lag_steps) * dt,
            dt,
            predictor,
        )
        for vehicle in last.vehicles
    ]
    forecast = {
        ts: WorldSnapshot(
            ts, ts * dt, tuple(t.states[ts - last.timestep - 1] for t in tracks), last.rsu_position
        )
        for ts in range(now + 1, now + horizon_steps + 1)
    }
    graphs = build_topologies(list(forecast.values()), params, budget_db)
    entries = {g.timestep: route_realtime(g, max_hops) for g in graphs}
    return PredictivePlan(entries, forecast, sum(t.degraded for t in tracks))


def score_route(route: Route | None, ground_truth: ConnectivityGraph) -> bool:
    """True iff the route exists and every hop holds in the ground truth."""
    if route is None:
        return False
    index = ground_truth.index
    ks = [index.get(node) for node in route.hops]
    if None in ks:
        return False
    adjacency = ground_truth.adjacency
    return all(b in adjacency[a] for a, b in zip(ks, ks[1:]))


ROUTE_DUMP_HEADER = "timestep,vehicle,hops,valid\n"


def dump_route_table(
    table: RouteTable, ground_truth: ConnectivityGraph, timestep: int, out: IO[str]
) -> None:
    for vehicle, route in table.items():
        hops = ">".join(str(h) for h in route.hops) if route else ""
        valid = int(score_route(route, ground_truth))
        out.write(f"{timestep},{vehicle},{hops},{valid}\n")
