"""Routing strategies and the ground-truth route checker.

All three strategies assign each connected vehicle a simple path to the
RSU over a connectivity graph; they differ only in which snapshot that
graph comes from and how often it is rebuilt (the engine owns the
cadence). Route choice minimizes hop count first, total path loss second,
and breaks remaining exact ties by the lexicographically smallest node
sequence, so results are deterministic and order-independent. A route is
its tuple of hops, source first and RSU last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, Mapping, Sequence

import numpy as np

from .channel import ChannelParams
from .model import Fleet, NodeId, VehicleState, WorldSnapshot
from .prediction import TrajectoryPredictor, predict
from .topology import ConnectivityGraph, build_topologies


# One routing pass: every vehicle node of the graph, in node order, to its
# hops, source first and RSU last; None means no path to the RSU existed.
RouteTable = dict[NodeId, tuple[NodeId, ...] | None]


def _hop_layers(graph: ConnectivityGraph) -> tuple[list[int | None], list[list[tuple[int, float]]]]:
    """BFS hop depth of every node from the RSU (None if unreachable), and
    per node its (neighbour, loss) pairs one layer closer to the RSU, in
    index order.

    Layer 1 is the RSU's own row. Each deeper layer is found bottom-up
    (Beamer, Asanovic & Patterson, 2012): every still-unreached node scans
    its own row for neighbours in the layer just found, which yields its
    down list in the same sweep. Depths and down lists equal a plain BFS.
    """
    adjacency = graph.adjacency
    depth: list[int | None] = [None] * len(adjacency)
    down: list[list[tuple[int, float]]] = [[] for _ in adjacency]
    depth[0] = 0
    for v, loss in adjacency[0].items():
        depth[v] = 1
        down[v] = [(0, loss)]
    unreached = [v for v in range(1, len(adjacency)) if depth[v] is None]
    layer = 1
    while unreached:
        rest = []
        for v in unreached:
            closer = [(u, loss) for u, loss in adjacency[v].items() if depth[u] == layer]
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
    nodes: tuple[NodeId, ...], source: int, hops: int, down: list[list[tuple[int, float]]]
) -> tuple[NodeId, ...]:
    """Hops of the best route from node index ``source``, ``hops`` layers
    from the RSU, over the hop-layer DAG.

    Every min-hop path steps one layer closer to the RSU per hop. A
    Dijkstra search on (hops, loss, path) labels from the source settles
    each such layer before the next, so a node's label there is the
    minimum over its neighbours one layer back, which is what each sweep
    below takes. Labels are (loss summed source-first, index path), and
    index order is NodeId order, so the route equals that search's.
    """
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
    return tuple(nodes[k] for k in labels[0][1])


def route_realtime(graph: ConnectivityGraph, max_hops: int | None = None) -> RouteTable:
    """Route every vehicle node of ``graph`` to the RSU, in node order.

    The graph's nodes are the connected vehicles of the snapshot it was
    built from. The engine decides which snapshot that is: with a
    control-plane latency it lags the scoring time, so the table may
    already be stale when it is applied.

    A node one hop from the RSU routes straight to it: a direct link wins
    whatever ``max_hops`` is.
    """
    depth, down = _hop_layers(graph)
    nodes = graph.nodes
    rsu = nodes[0]
    cap = None if max_hops is None else max(max_hops, 1)
    table: RouteTable = {}
    for k in range(1, len(nodes)):
        source = nodes[k]
        layer = depth[k]
        if layer is None or (cap is not None and layer > cap):
            table[source] = None
            continue
        table[source] = (source, rsu) if layer == 1 else _route_from(nodes, k, layer, down)
    return table


@dataclass(frozen=True, eq=False)
class PredictivePlan:
    """Route schedule for one planning epoch: per future timestep, the
    route table and the forecast it was computed from, a read-only
    ``(V, 3)`` array whose rows are the predicted ``(x, y, heading)`` of
    the last observed snapshot's vehicles, in the order of its ``ids``.
    The engine holds every strategy's window of tables as one; a realtime
    or conventional window holds one table for every step of a range,
    and has no ids and no forecasts. A step the window misses is a
    KeyError."""

    entries: Mapping[int, RouteTable]
    ids: tuple[NodeId, ...]
    forecast: dict[int, np.ndarray]
    degraded_tracks: int = 0


class _ObservedTrack(Sequence[VehicleState]):
    """One vehicle's observed states, oldest first, given as (snapshot,
    row) pairs; an entry becomes a :class:`VehicleState` when first read,
    so a predictor pays only for the depth of history it reads."""

    __slots__ = ("_rows", "_states")

    def __init__(self, rows: list[tuple[WorldSnapshot, int]]):
        self._rows = rows
        self._states: dict[int, VehicleState] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self._rows)))]
        k = range(len(self._rows))[i]  # a negative index counts from the end
        state = self._states.get(k)
        if state is None:
            snap, row = self._rows[k]
            state = self._states[k] = snap.vehicle(row)
        return state


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
    A vehicle whose predictor lacks history or fails holds its last
    observed row and is counted in ``degraded_tracks``. Every forecast
    step keeps the last observed snapshot's vehicles and moves only their
    ``(x, y, heading)`` rows: the predicted rows, stacked step by step,
    are the ``(steps, V, 3)`` pose array from which one
    :func:`build_topologies` call builds all the planned graphs.
    """
    if not history:
        raise ValueError("history must contain at least one snapshot")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    last = history[-1]
    lag_steps = now - last.timestep
    if lag_steps < 0:
        raise ValueError("history extends past the planning time")

    # each forecast vehicle's (snapshot, row) pairs, oldest first; which
    # of them a snapshot holds, and at which rows, depends on its fleet only
    ids = last.fleet.ids
    observed: list[list[tuple[WorldSnapshot, int]]] = [[] for _ in ids]
    rows_by_fleet: dict[Fleet, list[tuple[int, int]]] = {}
    for snap in history:
        rows = rows_by_fleet.get(snap.fleet)
        if rows is None:
            row = snap.fleet.row
            rows = rows_by_fleet[snap.fleet] = [
                (k, row[vid]) for k, vid in enumerate(ids) if vid in row
            ]
        for k, r in rows:
            observed[k].append((snap, r))
    horizon = (steps + lag_steps) * dt
    tracks = [predict(_ObservedTrack(seen), horizon, dt, predictor) for seen in observed]
    timesteps = range(now + 1, now + steps + 1)
    # (step, vehicle, x/y/heading), filled step by step from one flat run of floats
    planned = zip(*(t.states[lag_steps:lag_steps + steps] for t in tracks))
    flat = chain.from_iterable(chain.from_iterable(planned))
    xy_yaw = np.fromiter(flat, np.float64).reshape(steps, len(tracks), 3)
    xy_yaw.setflags(write=False)
    graphs = build_topologies(last, timesteps, xy_yaw, params, budget_db)
    entries = {g.timestep: route_realtime(g, max_hops) for g in graphs}
    forecast = dict(zip(timesteps, xy_yaw))
    return PredictivePlan(entries, ids, forecast, sum(t.degraded for t in tracks))


def score_route(route: tuple[NodeId, ...] | None, ground_truth: ConnectivityGraph) -> bool:
    """True iff the route exists and every hop holds in the ground truth."""
    if route is None:
        return False
    index = ground_truth.index
    adjacency = ground_truth.adjacency
    hops = iter(route)
    a = index.get(next(hops))
    if a is None:
        return False
    for node in hops:
        b = index.get(node)
        if b not in adjacency[a]:  # None, a node absent from the graph, is no key
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
