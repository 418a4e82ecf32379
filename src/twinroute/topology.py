"""Connectivity graph extraction from a world snapshot, or from one
snapshot's fleet at every step of a forecast or of a run of snapshots
with equal fleets at once.

A build has two stages. The link stage, :func:`feasible_links`, takes
per-step poses and returns every step's feasible links as
:class:`LinkRows`. The per-step builder, :func:`link_graphs`, makes one
:class:`ConnectivityGraph` per step from them, and
:func:`build_topologies` is the two stages together. The engine builds
the truth this way, and the predictive planner a forecast's graphs; one
snapshot's graph is the one-step call
``build_topologies(snap, [snap.timestep], snap.xy_yaw[None], ...)[0]``.

Nodes are the RSU plus every connected vehicle; an undirected edge exists
for every feasible antenna-to-antenna link. Unconnected vehicles never
become nodes but their bodies still occlude, and connected vehicles
occlude every link they are not an endpoint of. The RSU is a point
antenna with no body.

The graph is stored over int node indices (the position in the sorted
``nodes`` tuple, RSU at 0): one ``(i, j)`` row of ``edges`` per feasible
link with ``i < j`` in ascending (i, j) order, its distance, blocker
count and path loss in the ``edge_*`` arrays at the same row, all views
of the step's slice of the link rows. Node ``i``'s block is its rows
with ``i`` as the lower end. The routing input is the RSU's
``{neighbour: loss}`` row and, per node that row misses, that node's full
row; each row's keys ascend in index order, which is ``NodeId`` order.
:meth:`ConnectivityGraph.linked` is the edge test. A topology dump is
:data:`TOPOLOGY_DUMP_HEADER`, then :func:`dump_topology` of each graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import IO, NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams, link_radius, path_loss
from .geometry import blockage_count_matrix
from .model import NodeId, WorldSnapshot


@dataclass(frozen=True, eq=False)
class ConnectivityGraph:
    timestep: int
    nodes: tuple[NodeId, ...]  # sorted, RSU first
    index: dict[NodeId, int] = field(repr=False)
    # the link rows of the run of steps this graph is one of, and its slice
    links: LinkRows = field(repr=False)
    span: slice = field(repr=False)
    # the routing input: the RSU's {neighbour: loss} row, ascending, and
    # per node that row misses, ascending, its full {neighbour: loss} row
    rsu_row: dict[int, float] = field(repr=False)
    missed: dict[int, dict[int, float]] = field(repr=False)
    # the edge test's blocks: the j of every link row, shared by the run's
    # graphs, and per node index and one past the last, where its block starts
    upper: list[int] = field(repr=False)
    starts: list[int] = field(repr=False)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 rows (i, j) of the feasible links, i < j, ascending;
        the ``edge_*`` arrays hold each link's stats at its row."""
        return self.links.ij.T[self.span]

    @property
    def edge_distance(self) -> np.ndarray:
        return self.links.distance[self.span]

    @property
    def edge_blockers(self) -> np.ndarray:
        return self.links.blockers[self.span]

    @property
    def edge_loss(self) -> np.ndarray:
        return self.links.loss[self.span]

    def linked(self, a: int, b: int) -> bool:
        """Whether the nodes of index ``a`` and ``b`` share a link: read
        from the RSU's row or a row it misses, else by bisection in the
        lower end's block."""
        if a > b:
            a, b = b, a
        if a == 0:
            return b in self.rsu_row
        row = self.missed.get(a)
        if row is not None:
            return b in row
        upper, lo, hi = self.upper, self.starts[a], self.starts[a + 1]
        k = bisect_left(upper, b, lo, hi)
        return k < hi and upper[k] == b


@lru_cache(maxsize=64)
def _node_pairs(n: int) -> np.ndarray:
    """Every (i, j) with i < j < n, ascending, as a (2, pairs) array of the
    i and the j; read-only, shared by all builds."""
    ends = np.stack(np.triu_indices(n, k=1))
    ends.setflags(write=False)
    return ends


class LinkRows(NamedTuple):
    """The feasible links of one fleet at every step of a run of poses,
    one row each: the step's position in the timesteps, the ends ``(i, j)``
    with ``i < j`` as the two rows of ``ij``, and the link's distance,
    blocker count and path loss. Rows run step after step, each step's in
    ascending (i, j), so the RSU's links (``i == 0``) lead each step's."""

    step: np.ndarray  # (E,) int64
    ij: np.ndarray  # (2, E) int64
    distance: np.ndarray  # (E,) float64
    blockers: np.ndarray  # (E,) int64
    loss: np.ndarray  # (E,) float64


def feasible_links(
    snapshot: WorldSnapshot,
    timesteps: Sequence[int],
    xy_yaw: np.ndarray,
    params: ChannelParams,
    budget_db: float,
) -> LinkRows:
    """The link stage of every build: one snapshot's vehicles at per-step
    poses in, every step's feasible links out.

    ``snapshot`` gives the RSU position and its
    :class:`~twinroute.model.Fleet`: the ids, bodies, antennas, and the
    nodes, owner keys, id codes and half bodies the fleet derives once for
    all its builds. ``xy_yaw[s, k]`` is the (x, y, heading) of its row
    ``k`` at ``timesteps[s]``, laid out as the snapshot's own ``xy_yaw``
    row, which is not read. Most of the cost is a fixed number of numpy
    calls, so one call over S steps costs far less than S calls. One
    kernel call, which cuts the steps into chunks of bounded memory,
    counts blockers for every pair within the link radius at any step,
    with one owner key per antenna (RSU -1, a vehicle its id), and
    :func:`~twinroute.channel.path_loss` and the feasibility test run over
    all steps at once; a pair beyond the radius at a step is dropped
    there. The radius, :func:`~twinroute.channel.link_radius` of the
    channel and budget, is the ground distance beyond which no blockage
    class's loss fits the budget, capped at the maximum range; the
    feasibility test still applies the maximum range to the 3-D distance.
    One ``flatnonzero`` of the (step, pair) feasibility mask gives every
    step's rows.

    ``timesteps`` must not be empty.

    Raises ValueError, naming the timestep, for two antennas at one point
    (a zero-length link has no path loss), and for an ``xy_yaw`` whose
    shape is not (steps, vehicles, 3).
    """
    fleet = snapshot.fleet
    connected, nodes, halves = fleet.node_rows, fleet.nodes, fleet.halves
    n_steps, n_vehicles = len(timesteps), len(fleet.ids)
    if xy_yaw.shape != (n_steps, n_vehicles, 3):
        raise ValueError(
            f"xy_yaw has shape {xy_yaw.shape}, not ({n_steps}, {n_vehicles}, 3)"
        )

    centers = np.empty((n_steps, n_vehicles, 3))
    centers[:, :, :2] = xy_yaw[:, :, :2]
    centers[:, :, 2] = halves[:, 2]
    antennas = np.empty((n_steps, len(nodes), 3))
    antennas[:, 0] = snapshot.rsu_position
    antennas[:, 1:, :2] = xy_yaw[:, connected, :2]
    antennas[:, 1:, 2] = fleet.antenna_height[connected]

    # the union over steps of the pairs within the link radius in ground
    # distance, still in ascending (i, j) order, from per-axis antenna
    # arrays; antenna heights do not change from step to step. The radius
    # is at most the maximum range, and no class's loss fits the budget
    # beyond it (channel.link_radius argues why the cut is exact)
    x = antennas[:, :, 0].copy()  # (S, N)
    y = antennas[:, :, 1].copy()
    z = antennas[0, :, 2]  # (N,)
    ends = _node_pairs(len(nodes))
    dx = x.take(ends[0], axis=1) - x.take(ends[1], axis=1)  # (S, all node pairs)
    dy = y.take(ends[0], axis=1) - y.take(ends[1], axis=1)
    ground_sq = dx * dx + dy * dy
    del dx, dy
    max_range, radius = params.max_range_m, link_radius(params, budget_db)
    near = ground_sq <= radius * radius
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
        antennas, ends.T, fleet.owner_keys, centers, halves, xy_yaw[:, :, 2], fleet.codes
    )

    losses = path_loss(distances, blockers, params)

    # the feasible (step, pair) entries in row-major order are each step's
    # links in ascending (i, j), one step after the other
    feasible = near & (losses <= budget_db) & (distances <= max_range)
    rows = np.flatnonzero(feasible)
    step, pair = np.divmod(rows, ends.shape[1])
    return LinkRows(
        step, ends.take(pair, axis=1), distances.ravel()[rows], blockers.ravel()[rows],
        losses.ravel()[rows],
    )


def build_topologies(
    snapshot: WorldSnapshot,
    timesteps: Sequence[int],
    xy_yaw: np.ndarray,
    params: ChannelParams,
    budget_db: float,
) -> list[ConnectivityGraph]:
    """One graph per step: one snapshot's vehicles at per-step poses.

    The engine builds the truth graphs of a run of consecutive snapshots
    with one vehicle set (a run of one included) this way, and the
    predictive planner the graphs of a forecast's steps. The links are
    :func:`feasible_links` of the same arguments, which says what they
    are and what it checks; :func:`link_graphs` makes the graphs.
    """
    if not timesteps:
        return []
    links = feasible_links(snapshot, timesteps, xy_yaw, params, budget_db)
    fleet = snapshot.fleet
    return link_graphs(timesteps, fleet.nodes, fleet.index, links)


def link_graphs(
    timesteps: Sequence[int], nodes: tuple[NodeId, ...], index: dict[NodeId, int], links: LinkRows
) -> list[ConnectivityGraph]:
    """One graph per step of ``links`` over ``nodes``, all sharing
    ``nodes``, ``index`` and ``links``: what the routing pass reads of the
    step, the RSU's row and the full row of every node that row misses,
    with the step's slice of the rows and each node's block start.

    One ``searchsorted`` finds every (step, node) block of rows, and one
    ``tolist`` per column serves every step. The RSU's row is its block.
    One pass over the step's vehicle-to-vehicle rows, in ascending (i, j),
    keeps those whose upper end the RSU's row misses and pushes each into
    that end's row, which so gets its lower neighbours in ascending order;
    its own block, appended after them, gives the upper ones. So every row
    ascends at O(links) per step, and no dict holds a link between two
    nodes one hop from the RSU, which routing never reads.
    """
    n_nodes = len(nodes)
    i, j = links.ij
    starts = np.searchsorted(links.step * n_nodes + i, np.arange(len(timesteps) * n_nodes + 1)).tolist()
    lower, upper, loss = i.tolist(), j.tolist(), links.loss.tolist()
    graphs = []
    for s, ts in enumerate(timesteps):
        block = starts[s * n_nodes:(s + 1) * n_nodes + 1]
        first, vehicles, end = block[0], block[1], block[-1]
        rsu_row = dict(zip(upper[first:vehicles], loss[first:vehicles]))
        missed: dict[int, dict[int, float]] = {v: {} for v in range(1, n_nodes) if v not in rsu_row}
        if missed:
            into = upper[vehicles:end]
            rows = zip(lower[vehicles:end], into, loss[vehicles:end])
            for u, v, uv_loss in compress(rows, map(missed.__contains__, into)):
                missed[v][u] = uv_loss
            for v, row in missed.items():
                row.update(zip(upper[block[v]:block[v + 1]], loss[block[v]:block[v + 1]]))
        graphs.append(
            ConnectivityGraph(ts, nodes, index, links, slice(first, end), rsu_row, missed, upper, block)
        )
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
