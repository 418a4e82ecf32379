"""Routing strategies and the ground-truth route checker.

All three strategies assign each connected vehicle a simple path to the
RSU over a connectivity graph; they differ only in which snapshot that
graph comes from and how often it is rebuilt (the engine owns the
cadence). Route choice minimizes hop count first, total path loss second,
and breaks remaining exact ties by the lexicographically smallest node
sequence, so results are deterministic and order-independent. A route is
its tuple of hops, source first and RSU last.

One routing pass, :func:`route_realtime`, serves truth graphs and
forecast graphs alike: of a :class:`~twinroute.topology.ConnectivityGraph`
it reads the RSU's ``{neighbour: loss}`` row and the full row of every
node that row misses. A planning epoch builds each forecast step's graph
with :func:`~twinroute.topology.build_topologies`, as the engine builds
the truth. A route is checked hop by hop with the ground truth's edge
test, :meth:`~twinroute.topology.ConnectivityGraph.linked`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .channel import ChannelParams
from .model import NodeId, WorldSnapshot
from .prediction import TrajectoryPredictor, Tracks, predict
from .topology import ConnectivityGraph, build_topologies


# One routing pass: every vehicle node of the graph, in node order, to its
# hops, source first and RSU last; None means no path to the RSU existed.
RouteTable = dict[NodeId, tuple[NodeId, ...] | None]


def _layers(graph: ConnectivityGraph) -> tuple[list[int | None], dict[int, list[tuple[int, float]]]]:
    """BFS hop depth of every node from the RSU (None if unreachable), and
    per node at depth 2 or more its (neighbour, loss) pairs one layer
    closer to the RSU, in index order.

    Layer 1 is the RSU's own row. Each deeper layer is found bottom-up
    (Beamer, Asanovic & Patterson, 2012): every still-unreached node scans
    its own row for neighbours in the layer just found, which yields its
    down list in the same sweep, so only the rows the RSU's row misses are
    read. Depths and down lists equal a plain BFS.
    """
    depth: list[int | None] = [None] * len(graph.nodes)
    depth[0] = 0
    for v in graph.rsu_row:
        depth[v] = 1
    missed = graph.missed
    down: dict[int, list[tuple[int, float]]] = {}
    unreached = list(missed)
    layer = 1
    while unreached:
        rest = []
        for v in unreached:
            closer = [(u, loss) for u, loss in missed[v].items() if depth[u] == layer]
            if closer:
                depth[v] = layer + 1
                down[v] = closer
            else:
                rest.append(v)
        if len(rest) == len(unreached):
            break
        unreached = rest
        layer += 1
    return depth, down


def _route_from(
    nodes: tuple[NodeId, ...],
    source: int,
    hops: int,
    down: dict[int, list[tuple[int, float]]],
    rsu_row: Mapping[int, float],
) -> tuple[NodeId, ...]:
    """Hops of the best route from node index ``source``, ``hops`` >= 2
    layers from the RSU, over the hop-layer DAG.

    Every min-hop path steps one layer closer to the RSU per hop. A
    Dijkstra search on (hops, loss, path) labels from the source settles
    each such layer before the next, so a node's label there is the
    minimum over its neighbours one layer back, which is what each sweep
    below takes; the last hop, from layer 1, reads its loss from the
    RSU's row. A layer is held as (node, loss summed source-first) pairs
    and, once a sweep has crossed it, each node's index path; paths are
    compared only on exact loss ties. Index order is NodeId order, so the
    route equals that search's. The source's own down list ascends, so
    there the first of tied pairs has the smaller path.
    """
    front = down[source]
    paths: dict[int, tuple[int, ...]] | None = None  # None: (source, node)
    for _ in range(hops - 2):
        losses: dict[int, float] = {}
        through: dict[int, tuple[int, ...]] = {}
        for u, loss in front:
            path = (source, u) if paths is None else paths[u]
            for v, edge_loss in down[u]:
                total = loss + edge_loss
                best = losses.get(v)
                if best is None or total < best or (total == best and path < through[v]):
                    losses[v] = total
                    through[v] = path
        front = list(losses.items())
        paths = {v: path + (v,) for v, path in through.items()}
    last = None
    for u, loss in front:
        total = loss + rsu_row[u]
        if last is None or total < least or (
            total == least and paths is not None and paths[u] < paths[last]
        ):
            last, least = u, total
    path = (source, last) if paths is None else paths[last]
    return (*map(nodes.__getitem__, path), nodes[0])


def route_realtime(graph: ConnectivityGraph, max_hops: int | None = None) -> RouteTable:
    """The routing pass: every vehicle node of ``graph`` to its route to
    the RSU, in node order.

    The graph's nodes are the connected vehicles of the snapshot it was
    built from; a forecast graph keeps those of the last observed
    snapshot. The engine decides
    which snapshot that is: with a control-plane latency it lags the
    scoring time, so the table may already be stale when it is applied.

    A node one hop from the RSU routes straight to it: a direct link wins
    whatever ``max_hops`` is.
    """
    nodes = graph.nodes
    depth, down = _layers(graph)
    rsu = nodes[0]
    cap = None if max_hops is None else max(max_hops, 1)
    table: RouteTable = {}
    for k in range(1, len(nodes)):
        source = nodes[k]
        layer = depth[k]
        if layer == 1:
            table[source] = (source, rsu)
        elif layer is None or (cap is not None and layer > cap):
            table[source] = None
        else:
            table[source] = _route_from(nodes, k, layer, down, graph.rsu_row)
    return table


@dataclass(frozen=True, eq=False)
class PredictivePlan:
    """Route schedule for one planning epoch: per future timestep, the
    route table and the forecast it was computed from, a read-only
    ``(V, 3)`` array whose rows are the predicted ``(x, y, heading)`` of
    the last observed snapshot's vehicles, in the order of its ``ids``.
    Each table is the :func:`route_realtime` table of the step's
    forecast graph, the graph those poses build.
    The engine holds every strategy's window of tables as one; a realtime
    or conventional window holds one table for every step of a range,
    has no ids and no forecasts, and keeps in ``graph`` the graph it was
    routed on. A step the window misses is a KeyError."""

    entries: Mapping[int, RouteTable]
    ids: tuple[NodeId, ...]
    forecast: dict[int, np.ndarray]
    degraded_tracks: int = 0
    graph: ConnectivityGraph | None = None


def route_predictive(
    history: Sequence[WorldSnapshot],
    now: int,
    steps: int,
    predictor: TrajectoryPredictor,
    dt: float,
    params: ChannelParams,
    budget_db: float,
    max_hops: int | None = None,
) -> PredictivePlan:
    """Plan routes for the ``steps`` timesteps after ``now``, in advance.

    The history may lag ``now`` (control-plane latency shifts only the
    planning input); prediction bridges the lag and extends through the
    planned steps. Every vehicle in the last observed snapshot is
    forecast, unconnected ones included since their bodies still occlude.
    The history is a run of consecutive snapshots of one stream, in which
    a vehicle's observed rows are those of the newest snapshots that hold
    it. One :func:`~twinroute.prediction.predict` call forecasts every
    track from the rows its predictor reads, gathered by
    :meth:`~twinroute.prediction.Tracks.observed`. A vehicle whose
    predictor lacks history or fails holds its last observed row and is
    counted in ``degraded_tracks``. Every forecast step keeps the last
    observed snapshot's vehicles and moves only their ``(x, y, heading)``
    rows: the forecast's ``(steps, V, 3)`` pose array, past the lag, is
    the one from which one :func:`~twinroute.topology.build_topologies`
    call builds the graphs of all the planned steps, as the engine builds
    a run of truth graphs, and each step's table is the
    :func:`route_realtime` table of its graph.
    """
    if not history:
        raise ValueError("history must contain at least one snapshot")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    last = history[-1]
    lag_steps = now - last.timestep
    if lag_steps < 0:
        raise ValueError("history extends past the planning time")

    tracks = Tracks.observed(history, predictor.depth)
    rows, degraded = predict(tracks, (steps + lag_steps) * dt, dt, predictor)
    xy_yaw = rows[lag_steps:]
    xy_yaw.setflags(write=False)
    timesteps = range(now + 1, now + steps + 1)
    graphs = build_topologies(last, timesteps, xy_yaw, params, budget_db)
    entries = {graph.timestep: route_realtime(graph, max_hops) for graph in graphs}
    return PredictivePlan(entries, tracks.ids, dict(zip(timesteps, xy_yaw)), int(degraded.sum()))


def score_route(route: tuple[NodeId, ...] | None, ground_truth: ConnectivityGraph) -> bool:
    """True iff the route exists and every hop holds in the ground truth."""
    if route is None:
        return False
    index = ground_truth.index
    linked = ground_truth.linked
    hops = iter(route)
    a = index.get(next(hops))
    if a is None:
        return False
    for node in hops:
        b = index.get(node)
        if b is None or not linked(a, b):
            return False
        a = b
    return True


ROUTE_DUMP_HEADER = "timestep,vehicle,hops,valid\n"


def dump_route_table(
    table: RouteTable, ground_truth: ConnectivityGraph, timestep: int, out: IO[str]
) -> None:
    for vehicle, route in table.items():
        hops = ">".join(str(h) for h in route) if route else ""
        valid = int(score_route(route, ground_truth))
        out.write(f"{timestep},{vehicle},{hops},{valid}\n")
