"""Connectivity graph extraction from a world snapshot.

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
from functools import cached_property
from typing import IO, Iterable, Iterator

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
    nodes: list[NodeId],
    i: np.ndarray,
    j: np.ndarray,
    distance: np.ndarray,
    blockers: np.ndarray,
    loss: np.ndarray,
) -> ConnectivityGraph:
    """Graph over sorted ``nodes`` from edge rows with ``i < j``, any order."""
    order = np.lexsort((j, i))
    i, j, distance, blockers, loss = (a[order] for a in (i, j, distance, blockers, loss))
    # rows ascend in (i, j), so every node's neighbours arrive in index order
    adjacency: list[dict[int, float]] = [{} for _ in nodes]
    for a, b, ab_loss in zip(i.tolist(), j.tolist(), loss.tolist()):
        adjacency[a][b] = ab_loss
        adjacency[b][a] = ab_loss
    return ConnectivityGraph(
        timestep,
        tuple(nodes),
        {n: k for k, n in enumerate(nodes)},
        i,
        j,
        distance,
        blockers,
        loss,
        adjacency,
    )


def _finish_graph(
    timestep: int,
    nodes: list[NodeId],
    edges: dict[tuple[NodeId, NodeId], LinkAssessment],
) -> ConnectivityGraph:
    """Graph over sorted ``nodes`` from a ``(a, b) -> LinkAssessment`` dict."""
    index = {n: k for k, n in enumerate(nodes)}
    ends = np.array([sorted((index[a], index[b])) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    links = list(edges.values())
    return _graph_from_arrays(
        timestep,
        nodes,
        ends[:, 0],
        ends[:, 1],
        np.array([link.distance_m for link in links], dtype=np.float64),
        np.array([link.blockers for link in links], dtype=np.int64),
        np.array([link.path_loss_db for link in links], dtype=np.float64),
    )


def build_topology(
    snapshot: WorldSnapshot, params: ChannelParams, budget_db: float
) -> ConnectivityGraph:
    """Evaluate every node pair and keep the feasible links.

    Pure function of (snapshot, params, budget): the edge set does not
    depend on evaluation order. Pairs farther apart than the maximum range
    in ground distance are skipped before any occlusion work.
    """
    rsu = NodeId.rsu()
    connected = sorted(snapshot.connected_vehicles(), key=lambda v: v.id.sort_key)
    nodes: list[NodeId] = [rsu] + [v.id for v in connected]

    antennas = np.array([snapshot.rsu_position] + [v.antenna for v in connected], dtype=np.float64)
    owner_keys = np.array([-1] + [v.id.index for v in connected], dtype=np.int64)

    idx_i, idx_j = np.triu_indices(len(nodes), k=1)
    dx = antennas[idx_i, 0] - antennas[idx_j, 0]
    dy = antennas[idx_i, 1] - antennas[idx_j, 1]
    max_range = params.max_range_m
    near = dx * dx + dy * dy <= max_range * max_range
    pairs = np.stack([idx_i[near], idx_j[near]], axis=1)

    all_vehicles = snapshot.vehicles
    if len(pairs) and all_vehicles:
        centers = np.array(
            [(v.position[0], v.position[1], v.dimensions[2] / 2.0) for v in all_vehicles]
        )
        halves = np.array(
            [
                (v.dimensions[0] / 2.0, v.dimensions[1] / 2.0, v.dimensions[2] / 2.0)
                for v in all_vehicles
            ]
        )
        yaws = np.array([v.heading for v in all_vehicles])
        box_owners = np.array([v.id.index for v in all_vehicles], dtype=np.int64)
        blockers = blockage_count_matrix(
            antennas, pairs, owner_keys[pairs], centers, halves, yaws, box_owners
        )
    else:
        blockers = np.zeros(len(pairs), dtype=np.int64)

    diffs = antennas[pairs[:, 0]] - antennas[pairs[:, 1]]
    distances = np.sqrt((diffs * diffs).sum(axis=1))

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

    feasible = (losses <= budget_db) & (distances <= max_range)
    kept = pairs[feasible]
    return _graph_from_arrays(
        snapshot.timestep,
        nodes,
        kept[:, 0],
        kept[:, 1],
        distances[feasible],
        blockers[feasible],
        losses[feasible],
    )


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
