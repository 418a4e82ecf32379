"""Connectivity graph extraction from a world snapshot, or from one
vehicle tuple at every step of a forecast at once.

Nodes are the RSU plus every connected vehicle; an undirected edge exists
for every feasible antenna-to-antenna link. Unconnected vehicles never
become nodes but their bodies still occlude, and connected vehicles
occlude every link they are not an endpoint of. The RSU is a point
antenna with no body.

The graph is stored over int node indices (the position in the sorted
``nodes`` tuple, RSU at 0): one array row per feasible edge with ``i < j``
in ascending (i, j) order, plus one ``{neighbour: loss}`` dict per node
whose keys ascend in index order, which is ``NodeId`` order.
``NodeId`` and ``LinkAssessment`` objects appear only at the API and dump
boundaries.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .channel import ChannelParams, LinkAssessment
from .geometry import blockage_count_matrix
from .model import NodeId, Point3, Pose, VehicleState, WorldSnapshot


class EdgeView(Mapping):
    """Read-only ``(a, b) -> LinkAssessment`` view of a graph's edge arrays.

    Keys are sorted node pairs. The dict behind it is built on first
    access; ``len`` reads the arrays alone.
    """

    def __init__(self, graph: "ConnectivityGraph"):
        self._graph = graph

    @cached_property
    def _links(self) -> dict[tuple[NodeId, NodeId], LinkAssessment]:
        g = self._graph
        rows = zip(
            g.edge_i.tolist(),
            g.edge_j.tolist(),
            g.edge_distance.tolist(),
            g.edge_blockers.tolist(),
            g.edge_loss.tolist(),
        )
        return {
            (g.nodes[i], g.nodes[j]): LinkAssessment(d, b, loss, True)
            for i, j, d, b, loss in rows
        }

    def __len__(self) -> int:
        return len(self._graph.edge_i)

    def __iter__(self) -> Iterator[tuple[NodeId, NodeId]]:
        return iter(self._links)

    def __getitem__(self, key: tuple[NodeId, NodeId]) -> LinkAssessment:
        return self._links[key]


@dataclass(frozen=True, eq=False)
class ConnectivityGraph:
    timestep: int
    nodes: tuple[NodeId, ...]  # sorted, RSU first
    index: dict[NodeId, int] = field(repr=False)
    # feasible edges, i < j, ascending (i, j)
    edge_i: np.ndarray = field(repr=False)
    edge_j: np.ndarray = field(repr=False)
    edge_distance: np.ndarray = field(repr=False)
    edge_blockers: np.ndarray = field(repr=False)
    edge_loss: np.ndarray = field(repr=False)
    # per node index, {neighbour index: path_loss_db} in ascending index order
    adjacency: list[dict[int, float]] = field(repr=False)

    @cached_property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        i = self.index.get(a)
        j = self.index.get(b)
        return i is not None and j is not None and j in self.adjacency[i]


def _graph_from_arrays(
    timestep: int,
    nodes: tuple[NodeId, ...],
    index: dict[NodeId, int],
    i: np.ndarray,
    j: np.ndarray,
    distance: np.ndarray,
    blockers: np.ndarray,
    loss: np.ndarray,
) -> ConnectivityGraph:
    """Graph over sorted ``nodes`` from edge rows with ``i < j`` in ascending
    (i, j) order, so every node's neighbours arrive in index order."""
    adjacency = _adjacency(len(nodes), i.tolist(), j.tolist(), loss.tolist())
    return ConnectivityGraph(timestep, nodes, index, i, j, distance, blockers, loss, adjacency)


def _adjacency(
    n_nodes: int, i: Iterable[int], j: Iterable[int], loss: Iterable[float]
) -> list[dict[int, float]]:
    """One ``{neighbour: loss}`` dict per node, filled in edge-row order."""
    adjacency: list[dict[int, float]] = [{} for _ in range(n_nodes)]
    for a, b, ab_loss in zip(i, j, loss):
        adjacency[a][b] = ab_loss
        adjacency[b][a] = ab_loss
    return adjacency


@lru_cache(maxsize=64)
def _node_pairs(n: int) -> np.ndarray:
    """Every (i, j) with i < j < n, ascending, as a (2, pairs) array of the
    i and the j; read-only, shared by all builds."""
    ends = np.stack(np.triu_indices(n, k=1))
    ends.setflags(write=False)
    return ends


def build_topology(
    snapshot: WorldSnapshot, params: ChannelParams, budget_db: float
) -> ConnectivityGraph:
    """Evaluate every node pair and keep the feasible links.

    Pure function of (snapshot, params, budget): the edge set does not
    depend on evaluation order. Pairs farther apart than the maximum range
    in ground distance are skipped before any occlusion work.
    """
    vehicles = snapshot.vehicles
    poses = [(v.position, v.heading, v.speed) for v in vehicles]
    return build_topologies(
        vehicles, [snapshot.timestep], [poses], snapshot.rsu_position, params, budget_db
    )[0]


def build_topologies(
    vehicles: Sequence[VehicleState],
    timesteps: Sequence[int],
    poses: Sequence[Sequence[Pose]],
    rsu_position: Point3,
    params: ChannelParams,
    budget_db: float,
) -> list[ConnectivityGraph]:
    """One graph per forecast step: one vehicle tuple at per-step poses.

    ``vehicles`` gives the ids, bodies and ``connected`` flags, and
    ``poses[s][k]`` the (position, heading, speed) of ``vehicles[k]`` at
    ``timesteps[s]``; the vehicles' own poses are not read. Each graph
    equals the :func:`build_topology` graph of the snapshot of those
    vehicles at those poses. The node list and bodies are read once, and
    the poses become arrays from one flat run of floats. One kernel call
    counts blockers for every pair in range at any step, with one owner
    key per antenna (RSU -1, a vehicle its id), and the channel and
    feasibility arithmetic runs over all steps at once; a pair out of
    range at a step is dropped there. The graphs are assembled in one
    pass: one ``flatnonzero`` of the (step, pair) feasibility mask and one
    ``tolist`` per edge column serve every step, each graph's edge arrays
    are slices of those, and its adjacency dicts are filled in (i, j) row
    order.

    Raises ValueError, naming the timestep, for two antennas at one point
    (a zero-length link has no path loss).
    """
    if not timesteps:
        return []
    n_steps, n_vehicles = len(timesteps), len(vehicles)
    connected = sorted(
        (k for k, v in enumerate(vehicles) if v.connected), key=lambda k: vehicles[k].id
    )
    nodes = (NodeId.rsu(),) + tuple(vehicles[k].id for k in connected)
    index = {n: k for k, n in enumerate(nodes)}
    # owner keys are the ids' int codes, all >= 1 for vehicles
    owner_keys = np.array([-1] + [vehicles[k].id for k in connected], dtype=np.int64)

    # per-step (x, y, yaw) of every vehicle, read from one flat run of
    # floats (no count given, so a step of the wrong length fails the
    # reshape); bodies are shared
    flat = chain.from_iterable((x, y, yaw) for step in poses for (x, y, _), yaw, _ in step)
    xy_yaw = np.fromiter(flat, np.float64).reshape(n_steps, n_vehicles, 3)
    dims = chain.from_iterable(v.dimensions for v in vehicles)
    halves = np.fromiter(dims, np.float64).reshape(n_vehicles, 3) / 2.0
    centers = np.empty((n_steps, n_vehicles, 3))
    centers[:, :, :2] = xy_yaw[:, :, :2]
    centers[:, :, 2] = halves[:, 2]
    antennas = np.empty((n_steps, len(nodes), 3))
    antennas[:, 0] = rsu_position
    antennas[:, 1:, :2] = xy_yaw[:, connected, :2]
    antennas[:, 1:, 2] = [vehicles[k].antenna_height for k in connected]

    # the union over steps of the pairs within range in ground distance,
    # still in ascending (i, j) order, from per-axis antenna arrays; antenna
    # heights do not change from step to step
    x = antennas[:, :, 0].copy()  # (S, N)
    y = antennas[:, :, 1].copy()
    z = antennas[0, :, 2]  # (N,)
    ends = _node_pairs(len(nodes))
    dx = x.take(ends[0], axis=1) - x.take(ends[1], axis=1)  # (S, all node pairs)
    dy = y.take(ends[0], axis=1) - y.take(ends[1], axis=1)
    ground_sq = dx * dx + dy * dy
    del dx, dy
    max_range = params.max_range_m
    near = ground_sq <= max_range * max_range
    in_range = np.flatnonzero(near.any(axis=0))
    ends, near = ends.take(in_range, axis=1), near.take(in_range, axis=1)
    dz = z.take(ends[0]) - z.take(ends[1])
    distances = np.sqrt(ground_sq.take(in_range, axis=1) + dz * dz)  # (S, P)
    del ground_sq
    if not distances.all():
        s, p = np.argwhere(distances == 0.0)[0]
        a, b = ends[:, p]
        raise ValueError(
            f"timestep {timesteps[s]}: antennas of {nodes[a]} and {nodes[b]} coincide"
        )

    box_owners = np.array([v.id for v in vehicles], dtype=np.int64)
    blockers = blockage_count_matrix(
        antennas, ends.T, owner_keys, centers, halves, xy_yaw[:, :, 2], box_owners
    )

    # vectorized twin of channel.path_loss: same class table, same
    # term order, so values match the scalar op bit for bit
    bounds = np.array([c.max_blockers for c in params.classes[:-1]], dtype=np.int64)
    cls_idx = np.searchsorted(bounds, blockers, side="left")
    rho = np.array([c.rho for c in params.classes])[cls_idx]
    gamma = np.array([c.gamma for c in params.classes])[cls_idx]
    losses = (
        10.0 * rho * np.log10(distances)
        + gamma
        + params.atmospheric_db_per_km * distances / 1000.0
    )

    # every step's edge rows in one pass: the feasible (step, pair) entries
    # in row-major order are each step's edges in ascending (i, j), one
    # step after the other; each graph's arrays are slices of these
    feasible = near & (losses <= budget_db) & (distances <= max_range)
    rows = np.flatnonzero(feasible)
    n_pairs = ends.shape[1]
    stops = np.searchsorted(rows, np.arange(1, n_steps + 1) * n_pairs).tolist()
    i, j = ends.take(rows % n_pairs, axis=1)
    distance = distances.ravel()[rows]
    blocked = blockers.ravel()[rows]
    loss = losses.ravel()[rows]
    i_list, j_list, loss_list = i.tolist(), j.tolist(), loss.tolist()
    graphs = []
    start = 0
    for ts, stop in zip(timesteps, stops):
        edges = slice(start, stop)
        adjacency = _adjacency(len(nodes), i_list[edges], j_list[edges], loss_list[edges])
        graphs.append(
            ConnectivityGraph(
                ts, nodes, index, i[edges], j[edges], distance[edges], blocked[edges],
                loss[edges], adjacency,
            )
        )
        start = stop
    return graphs


def dump_topology(graph: ConnectivityGraph, out: IO[str]) -> None:
    """Append one edge-list row per link: timestep, endpoints, link stats."""
    nodes = graph.nodes
    rows = zip(
        graph.edge_i.tolist(),
        graph.edge_j.tolist(),
        graph.edge_distance.tolist(),
        graph.edge_blockers.tolist(),
        graph.edge_loss.tolist(),
    )
    for i, j, distance, blockers, loss in rows:
        out.write(f"{graph.timestep},{nodes[i]},{nodes[j]},{distance!r},{blockers},{loss!r}\n")


TOPOLOGY_DUMP_HEADER = "timestep,node_a,node_b,distance_m,blockers,path_loss_db\n"


def dump_topology_stream(graphs: Iterable[ConnectivityGraph], out: IO[str]) -> None:
    out.write(TOPOLOGY_DUMP_HEADER)
    for g in graphs:
        dump_topology(g, out)
