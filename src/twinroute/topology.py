"""Connectivity graph extraction from a world snapshot, or from all the
snapshots of one forecast at once.

Nodes are the RSU plus every connected vehicle; an undirected edge exists
for every feasible antenna-to-antenna link. Unconnected vehicles never
become nodes but their bodies still occlude, and connected vehicles
occlude every link they are not an endpoint of. The RSU is a point
antenna with no body.

The graph is stored over int node indices (the position in the sorted
``nodes`` tuple, RSU at 0): one array row per feasible edge with ``i < j``
in ascending (i, j) order, plus one ``{neighbour: loss}`` dict per node
whose keys ascend in index order, which is ``NodeId.sort_key`` order.
``NodeId`` and ``LinkAssessment`` objects appear only at the API and dump
boundaries.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .channel import ChannelParams, LinkAssessment
from .geometry import blockage_count_matrix
from .model import NodeId, WorldSnapshot


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

    def edge(self, a: NodeId, b: NodeId) -> LinkAssessment:
        return self.edges[(min(a, b), max(a, b))]

    def neighbors(self, node: NodeId) -> tuple[tuple[NodeId, float], ...]:
        """(neighbor, path_loss_db) pairs in ascending neighbor order."""
        return tuple((self.nodes[k], loss) for k, loss in self.adjacency[self.index[node]].items())


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
    adjacency: list[dict[int, float]] = [{} for _ in nodes]
    for a, b, ab_loss in zip(i.tolist(), j.tolist(), loss.tolist()):
        adjacency[a][b] = ab_loss
        adjacency[b][a] = ab_loss
    return ConnectivityGraph(timestep, nodes, index, i, j, distance, blockers, loss, adjacency)


def _finish_graph(
    timestep: int,
    nodes: list[NodeId],
    edges: dict[tuple[NodeId, NodeId], LinkAssessment],
) -> ConnectivityGraph:
    """Graph over sorted ``nodes`` from a ``(a, b) -> LinkAssessment`` dict."""
    index = {n: k for k, n in enumerate(nodes)}
    ends = np.array([sorted((index[a], index[b])) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    links = list(edges.values())
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    return _graph_from_arrays(
        timestep,
        tuple(nodes),
        index,
        ends[order, 0],
        ends[order, 1],
        np.array([link.distance_m for link in links], dtype=np.float64)[order],
        np.array([link.blockers for link in links], dtype=np.int64)[order],
        np.array([link.path_loss_db for link in links], dtype=np.float64)[order],
    )


@lru_cache(maxsize=64)
def _node_pairs(n: int) -> np.ndarray:
    """Every (i, j) with i < j < n, ascending; read-only, shared by all builds."""
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    pairs.setflags(write=False)
    return pairs


def build_topology(
    snapshot: WorldSnapshot, params: ChannelParams, budget_db: float
) -> ConnectivityGraph:
    """Evaluate every node pair and keep the feasible links.

    Pure function of (snapshot, params, budget): the edge set does not
    depend on evaluation order. Pairs farther apart than the maximum range
    in ground distance are skipped before any occlusion work.
    """
    return build_topologies([snapshot], params, budget_db)[0]


def build_topologies(
    snapshots: Sequence[WorldSnapshot], params: ChannelParams, budget_db: float
) -> list[ConnectivityGraph]:
    """One graph per snapshot, for snapshots that share one vehicle tuple.

    Every snapshot must hold the same vehicles (ids, bodies and
    ``connected`` flags) in the same order, as the steps of one forecast
    do; only poses and the RSU position may differ. Each graph equals the
    one built from its snapshot alone. The node list and bodies are read
    once, one kernel call counts blockers for every pair in range at any
    step, and the channel and feasibility arithmetic runs over all steps
    at once; a pair out of range at a step is dropped there.

    Raises ValueError for mismatched vehicle tuples, and for two antennas
    at one point (a zero-length link has no path loss).
    """
    if not snapshots:
        return []
    vehicles = snapshots[0].vehicles
    bodies = [(v.id, v.dimensions, v.antenna_height, v.connected) for v in vehicles]
    for snap in snapshots[1:]:
        if [(v.id, v.dimensions, v.antenna_height, v.connected) for v in snap.vehicles] != bodies:
            raise ValueError(
                f"timestep {snap.timestep}: vehicles differ from those at "
                f"timestep {snapshots[0].timestep}"
            )
    n_steps, n_vehicles = len(snapshots), len(vehicles)
    # every id is a vehicle's, so index order is NodeId order
    connected = sorted(
        (k for k, v in enumerate(vehicles) if v.connected), key=lambda k: vehicles[k].id.index
    )
    nodes = (NodeId.rsu(),) + tuple(vehicles[k].id for k in connected)
    index = {n: k for k, n in enumerate(nodes)}
    owner_keys = np.array([-1] + [vehicles[k].id.index for k in connected], dtype=np.int64)

    # per-step poses; bodies are shared
    positions = np.array(
        [[v.position for v in snap.vehicles] for snap in snapshots], dtype=np.float64
    ).reshape(n_steps, n_vehicles, 3)
    yaws = np.array(
        [[v.heading for v in snap.vehicles] for snap in snapshots], dtype=np.float64
    ).reshape(n_steps, n_vehicles)
    halves = np.array([v.dimensions for v in vehicles], dtype=np.float64).reshape(-1, 3) / 2.0
    centers = positions.copy()
    centers[:, :, 2] = halves[:, 2]
    antennas = np.empty((n_steps, len(nodes), 3))
    antennas[:, 0] = [snap.rsu_position for snap in snapshots]
    antennas[:, 1:, :2] = positions[:, connected, :2]
    antennas[:, 1:, 2] = [vehicles[k].antenna_height for k in connected]

    # the union over steps of the pairs within range in ground distance,
    # still in ascending (i, j) order
    pairs = _node_pairs(len(nodes))
    sq = np.square(antennas[:, pairs[:, 0]] - antennas[:, pairs[:, 1]])  # (S, all node pairs, 3)
    max_range = params.max_range_m
    near = sq[:, :, 0] + sq[:, :, 1] <= max_range * max_range
    in_range = near.any(axis=0)
    pairs, near = pairs[in_range], near[:, in_range]
    distances = np.sqrt(sq[:, in_range].sum(axis=2))  # (S, P)
    del sq
    if not distances.all():
        s, p = np.argwhere(distances == 0.0)[0]
        a, b = pairs[p]
        raise ValueError(
            f"timestep {snapshots[s].timestep}: antennas of {nodes[a]} and {nodes[b]} coincide"
        )

    box_owners = np.array([v.id.index for v in vehicles], dtype=np.int64)
    blockers = blockage_count_matrix(
        antennas, pairs, owner_keys[pairs], centers, halves, yaws, box_owners
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

    feasible = near & (losses <= budget_db) & (distances <= max_range)
    graphs = []
    for snap, keep, d, k, loss in zip(snapshots, feasible, distances, blockers, losses):
        i, j = pairs[keep].T
        graphs.append(
            _graph_from_arrays(snap.timestep, nodes, index, i, j, d[keep], k[keep], loss[keep])
        )
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
