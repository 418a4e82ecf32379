"""Connectivity graph extraction from a world snapshot, or from one
snapshot's fleet at every step of a forecast or of a run of snapshots
with equal fleets at once.

Nodes are the RSU plus every connected vehicle; an undirected edge exists
for every feasible antenna-to-antenna link. Unconnected vehicles never
become nodes but their bodies still occlude, and connected vehicles
occlude every link they are not an endpoint of. The RSU is a point
antenna with no body.

The graph is stored over int node indices (the position in the sorted
``nodes`` tuple, RSU at 0): one ``(i, j)`` row of ``edges`` per feasible
link with ``i < j`` in ascending (i, j) order, its distance, blocker
count and path loss in the ``edge_*`` arrays at the same row, plus one
``{neighbour: loss}`` dict per node whose keys ascend in index order,
which is ``NodeId`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, Sequence

import numpy as np

from .channel import ChannelParams, path_loss
from .geometry import blockage_count_matrix
from .model import NodeId, WorldSnapshot


@dataclass(frozen=True, eq=False)
class ConnectivityGraph:
    timestep: int
    nodes: tuple[NodeId, ...]  # sorted, RSU first
    index: dict[NodeId, int] = field(repr=False)
    # (E, 2) int64 rows (i, j) of the feasible links, i < j, ascending;
    # the edge_* arrays hold each link's stats at its row
    edges: np.ndarray = field(repr=False)
    edge_distance: np.ndarray = field(repr=False)
    edge_blockers: np.ndarray = field(repr=False)
    edge_loss: np.ndarray = field(repr=False)
    # per node index, {neighbour index: path_loss_db} in ascending index order
    adjacency: list[dict[int, float]] = field(repr=False)

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        i = self.index.get(a)
        j = self.index.get(b)
        return i is not None and j is not None and j in self.adjacency[i]


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
    in ground distance are skipped before any occlusion work. This is the
    one-step :func:`build_topologies` call over a view of the snapshot's
    own ``xy_yaw``.
    """
    poses = snapshot.xy_yaw[None]
    return build_topologies(snapshot, [snapshot.timestep], poses, params, budget_db)[0]


def build_topologies(
    snapshot: WorldSnapshot,
    timesteps: Sequence[int],
    xy_yaw: np.ndarray,
    params: ChannelParams,
    budget_db: float,
) -> list[ConnectivityGraph]:
    """One graph per step: one snapshot's vehicles at per-step poses.

    The planner builds a forecast window's graphs this way, and the engine
    the truth graphs of a run of consecutive snapshots with one vehicle
    set (a run of one included). ``snapshot`` gives the RSU position and
    its :class:`~twinroute.model.Fleet`: the ids, bodies, antennas, and
    the node rows and id codes the fleet derives once for all its
    builds. ``xy_yaw[s, k]`` is the (x, y, heading) of its row ``k`` at
    ``timesteps[s]``, laid out as the snapshot's own ``xy_yaw`` row,
    which is not read. Each graph equals
    the :func:`build_topology` graph of the snapshot with its vehicles
    moved to those poses. Most of a
    build's cost is a fixed number of numpy calls, so one call over S
    steps costs far less than S calls. One kernel call, which cuts the
    steps into chunks of bounded memory, counts blockers for every pair in
    range at any step, with one owner key per antenna (RSU -1, a vehicle
    its id), and :func:`~twinroute.channel.path_loss` and the
    feasibility test run over all steps at once; a pair out of range
    at a step is dropped there. The graphs are assembled in one pass: one
    ``flatnonzero`` of the (step, pair) feasibility mask and one ``tolist``
    per edge column serve every step, each graph's edge arrays are slices
    of those, and its adjacency dicts are filled in (i, j) row order.

    Raises ValueError, naming the timestep, for two antennas at one point
    (a zero-length link has no path loss), and for an ``xy_yaw`` whose
    shape is not (steps, vehicles, 3).
    """
    if not timesteps:
        return []
    fleet = snapshot.fleet
    ids, connected, codes = fleet.ids, fleet.node_rows, fleet.codes
    n_steps, n_vehicles = len(timesteps), len(ids)
    if xy_yaw.shape != (n_steps, n_vehicles, 3):
        raise ValueError(
            f"xy_yaw has shape {xy_yaw.shape}, not ({n_steps}, {n_vehicles}, 3)"
        )
    nodes = (NodeId.rsu(),) + tuple(map(ids.__getitem__, connected.tolist()))
    index = {n: k for k, n in enumerate(nodes)}
    # owner keys are the ids' int codes, all >= 1 for vehicles
    owner_keys = np.empty(len(nodes), np.int64)
    owner_keys[0] = -1
    owner_keys[1:] = codes[connected]

    halves = fleet.bodies / 2.0
    centers = np.empty((n_steps, n_vehicles, 3))
    centers[:, :, :2] = xy_yaw[:, :, :2]
    centers[:, :, 2] = halves[:, 2]
    antennas = np.empty((n_steps, len(nodes), 3))
    antennas[:, 0] = snapshot.rsu_position
    antennas[:, 1:, :2] = xy_yaw[:, connected, :2]
    antennas[:, 1:, 2] = fleet.antenna_height[connected]

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

    blockers = blockage_count_matrix(
        antennas, ends.T, owner_keys, centers, halves, xy_yaw[:, :, 2], codes
    )

    losses = path_loss(distances, blockers, params)

    # every step's edge rows in one pass: the feasible (step, pair) entries
    # in row-major order are each step's edges in ascending (i, j), one
    # step after the other; each graph's arrays are slices of these
    feasible = near & (losses <= budget_db) & (distances <= max_range)
    rows = np.flatnonzero(feasible)
    n_pairs = ends.shape[1]
    stops = np.searchsorted(rows, np.arange(1, n_steps + 1) * n_pairs).tolist()
    ij = ends.take(rows % n_pairs, axis=1)
    edges = ij.T  # (E, 2) view: taking along the pair axis is the cheaper gather
    distance = distances.ravel()[rows]
    blocked = blockers.ravel()[rows]
    loss = losses.ravel()[rows]
    (i_list, j_list), loss_list = ij.tolist(), loss.tolist()
    graphs = []
    start = 0
    for ts, stop in zip(timesteps, stops):
        step = slice(start, stop)
        adjacency = _adjacency(len(nodes), i_list[step], j_list[step], loss_list[step])
        graphs.append(
            ConnectivityGraph(
                ts, nodes, index, edges[step], distance[step], blocked[step], loss[step],
                adjacency,
            )
        )
        start = stop
    return graphs


def dump_topology(graph: ConnectivityGraph, out: IO[str]) -> None:
    """Append one edge-list row per link: timestep, endpoints, link stats."""
    nodes = graph.nodes
    rows = zip(
        graph.edges.tolist(),
        graph.edge_distance.tolist(),
        graph.edge_blockers.tolist(),
        graph.edge_loss.tolist(),
    )
    for (i, j), distance, blockers, loss in rows:
        out.write(f"{graph.timestep},{nodes[i]},{nodes[j]},{distance!r},{blockers},{loss!r}\n")


TOPOLOGY_DUMP_HEADER = "timestep,node_a,node_b,distance_m,blockers,path_loss_db\n"


def dump_topology_stream(graphs: Iterable[ConnectivityGraph], out: IO[str]) -> None:
    out.write(TOPOLOGY_DUMP_HEADER)
    for g in graphs:
        dump_topology(g, out)
