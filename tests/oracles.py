"""Independent brute-force oracles.

Everything here re-derives results from first principles and shares no
code with the implementations it checks: occlusion by dense sampling,
shortest paths by exhaustive simple-path enumeration, path loss by an
inline re-statement of the channel formula. Oracles are deliberately
slow and only run at small scale. The exceptions are the exact references
that faster code replaced and must still match: the scalar slab test
(``ObstacleBox``, ``box_from_vehicle``, ``segment_intersects_box`` and
``blockage_count``) and the dense blockage kernel for the two-phase one,
the numpy pose lookup for the bisect one, the top-down BFS for the
bottom-up hop layering, the list-and-``all()`` route check for the
one-pass hop walk, and ``node_key``, the order read from a node's text
form that int-coded node ids must sort in. ``oracle_run`` restates the
engine's schedule over a plain list of snapshots, on top of the product's
``build_topology`` (criterion 4 pins it) and its predictors, which are
pure functions.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from twinroute.model import (
    NodeId,
    Strategy,
    VehicleState,
    WorldSnapshot,
    delay_to_steps,
    seconds_to_steps,
)
from twinroute.prediction import make_predictor
from twinroute.topology import build_topology

SAMPLES = 10_000
SURFACE_TOLERANCE = 1e-6  # disagreements allowed only this close to a face


@dataclass(frozen=True)
class OracleCase:
    """A frozen expected value together with the oracle that produced it.

    Derived test expectations are recorded this way so it stays checkable
    that none of them were hand-entered: re-running the named oracle on
    the serialized inputs must reproduce ``expected``.
    """

    description: str
    oracle: str  # oracle function name in this module
    inputs: tuple
    expected: object


def node_key(node: NodeId) -> tuple[int, int]:
    """Node order from identity alone, read from ``str(node)`` and not
    from the int code: the RSU first, then vehicles by index."""
    text = str(node)
    return (0, 0) if text == "rsu" else (1, int(text.removeprefix("v")))


def _neighbors(graph, node):
    """(neighbour, path loss) pairs of ``node``, read from the adjacency dicts."""
    return [(graph.nodes[k], loss) for k, loss in graph.adjacency[graph.index[node]].items()]


@dataclass(frozen=True)
class ObstacleBox:
    """Oriented box resting on the ground: center z equals half the height."""

    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    yaw: float
    owner: NodeId

    def __post_init__(self) -> None:
        if min(self.half_extents) <= 0:
            raise ValueError(f"half extents must be positive: {self.half_extents}")


def box_from_vehicle(v: VehicleState) -> ObstacleBox:
    length, width, height = v.dimensions
    x, y, _ = v.position
    return ObstacleBox(
        center=(x, y, height / 2.0),
        half_extents=(length / 2.0, width / 2.0, height / 2.0),
        yaw=v.heading,
        owner=v.id,
    )


def _to_local(box: ObstacleBox, p: Sequence[float]) -> tuple[float, float, float]:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = p[0] - box.center[0]
    dy = p[1] - box.center[1]
    dz = p[2] - box.center[2]
    # inverse rotation about z
    return (c * dx + s * dy, -s * dx + c * dy, dz)


def segment_intersects_box(
    a: Sequence[float], b: Sequence[float], box: ObstacleBox
) -> bool:
    """True iff segment (a, b) hits the closed oriented box (slab test)."""
    ax, ay, az = _to_local(box, a)
    bx, by, bz = _to_local(box, b)
    if (ax, ay, az) == (bx, by, bz):
        raise ValueError("segment endpoints coincide")
    t_enter = 0.0
    t_exit = 1.0
    for o, d, h in (
        (ax, bx - ax, box.half_extents[0]),
        (ay, by - ay, box.half_extents[1]),
        (az, b[2] - a[2], box.half_extents[2]),  # world z step, as the kernel takes it
    ):
        if d == 0.0:
            if abs(o) > h:
                return False
            continue
        t0 = (-h - o) / d
        t1 = (h - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_enter = max(t_enter, t0)
        t_exit = min(t_exit, t1)
        if t_enter > t_exit:
            return False
    return True


def blockage_count(
    tx: Sequence[float],
    rx: Sequence[float],
    obstacles: Iterable[ObstacleBox],
    exclude: frozenset[NodeId] | set[NodeId],
) -> int:
    """Number of non-excluded boxes crossing the tx-rx segment.

    The owners of both link endpoints must be in ``exclude``: an antenna
    never counts its own roof as a blocker.
    """
    if tuple(tx) == tuple(rx):
        raise ValueError("tx and rx coincide")
    count = 0
    for box in obstacles:
        if box.owner in exclude:
            continue
        if segment_intersects_box(tx, rx, box):
            count += 1
    return count


def _sample_local(a, b, center, half, yaw, ts):
    """Box-local coordinates of segment points a + t*(b-a) for t in ts."""
    ts = np.asarray(ts)
    px = a[0] + (b[0] - a[0]) * ts
    py = a[1] + (b[1] - a[1]) * ts
    pz = a[2] + (b[2] - a[2]) * ts
    c, s = math.cos(yaw), math.sin(yaw)
    dx = px - center[0]
    dy = py - center[1]
    return (
        c * dx + s * dy,
        -s * dx + c * dy,
        pz - center[2],
    )


def _surface_distances(lx, ly, lz, half):
    """Euclidean distance from each local point to the box surface."""
    ex = np.abs(lx) - half[0]
    ey = np.abs(ly) - half[1]
    ez = np.abs(lz) - half[2]
    outside = np.sqrt(
        np.maximum(ex, 0.0) ** 2 + np.maximum(ey, 0.0) ** 2 + np.maximum(ez, 0.0) ** 2
    )
    inside_depth = -np.maximum.reduce([ex, ey, ez])  # valid where all <= 0
    inside = (ex <= 0) & (ey <= 0) & (ez <= 0)
    return np.where(inside, inside_depth, outside), inside


def oracle_occlusion(a, b, center, half, yaw, samples: int = SAMPLES) -> bool:
    """Dense-sampling occlusion: does the segment enter the box?

    Coarse evenly spaced samples decide most cases; when the segment only
    grazes (closest sample near the surface but outside), the bracket
    around the closest sample is resampled twice so that penetrations far
    narrower than the coarse step are still found.
    """
    ts = np.linspace(0.0, 1.0, samples)
    step = 1.0 / (samples - 1)
    for _ in range(3):
        lx, ly, lz = _sample_local(a, b, center, half, yaw, ts)
        dist, inside = _surface_distances(lx, ly, lz, half)
        if inside.any():
            return True
        k = int(np.argmin(dist))
        lo = max(ts[k] - 2 * step, 0.0)
        hi = min(ts[k] + 2 * step, 1.0)
        ts = np.linspace(lo, hi, samples)
        step = (hi - lo) / (samples - 1)
    return False


def oracle_min_surface_distance(a, b, center, half, yaw, samples: int = SAMPLES) -> float:
    """Minimum distance from the (refined) sampled segment to the box surface."""
    ts = np.linspace(0.0, 1.0, samples)
    step = 1.0 / (samples - 1)
    best = math.inf
    for _ in range(3):
        lx, ly, lz = _sample_local(a, b, center, half, yaw, ts)
        dist, _ = _surface_distances(lx, ly, lz, half)
        k = int(np.argmin(dist))
        best = min(best, float(dist[k]))
        lo = max(ts[k] - 2 * step, 0.0)
        hi = min(ts[k] + 2 * step, 1.0)
        ts = np.linspace(lo, hi, samples)
        step = (hi - lo) / (samples - 1)
    return best


def oracle_dense_blockage_counts(
    points: np.ndarray,
    pairs: np.ndarray,
    pair_owner_keys: np.ndarray,
    box_centers: np.ndarray,
    box_half_extents: np.ndarray,
    box_yaws: np.ndarray,
    box_owner_keys: np.ndarray,
) -> np.ndarray:
    """Blocker counts from a dense (boxes x pairs) slab test.

    The kernel ``geometry.blockage_count_matrix`` used before it gained its
    broad phase, kept verbatim as the reference the two-phase kernel must
    match count for count. Same arguments and result: points (N, 3),
    pairs (P, 2), pair_owner_keys (P, 2), box centers and half extents
    (B, 3), yaws and owner keys (B,); returns (P,) int64 counts.
    """
    n_pairs = len(pairs)
    n_boxes = len(box_centers)
    if n_pairs == 0 or n_boxes == 0:
        return np.zeros(n_pairs, dtype=np.int64)

    counts = np.zeros(n_pairs, dtype=np.int64)

    # z is unrotated (yaw about z only), so the z slab over all (box, pair)
    # combinations is cheap and rejects most of them before any rotation:
    # antenna sight lines mostly fly above car roofs.
    az = points[pairs[:, 0], 2]  # (P,)
    dz = points[pairs[:, 1], 2] - az
    oz = az[None, :] - box_centers[:, 2][:, None]  # (B, P)
    hz = box_half_extents[:, 2][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        tz0 = (-hz - oz) / dz[None, :]
        tz1 = (hz - oz) / dz[None, :]
    tz_lo = np.minimum(tz0, tz1)
    tz_hi = np.maximum(tz0, tz1)
    level = dz == 0.0
    if level.any():
        inside = np.abs(oz) <= hz
        lvl = np.broadcast_to(level[None, :], oz.shape)
        tz_lo = np.where(lvl, np.where(inside, -np.inf, np.inf), tz_lo)
        tz_hi = np.where(lvl, np.where(inside, np.inf, -np.inf), tz_hi)
    tz_lo = np.maximum(tz_lo, 0.0)
    tz_hi = np.minimum(tz_hi, 1.0)

    alive = tz_lo <= tz_hi
    alive &= box_owner_keys[:, None] != pair_owner_keys[None, :, 0]
    alive &= box_owner_keys[:, None] != pair_owner_keys[None, :, 1]
    if not alive.any():
        return counts

    idx_b, idx_p = np.nonzero(alive)  # K surviving (box, pair) combos
    cos = np.cos(box_yaws)[idx_b]
    sin = np.sin(box_yaws)[idx_b]
    cx = box_centers[idx_b, 0]
    cy = box_centers[idx_b, 1]
    rax = points[pairs[idx_p, 0], 0] - cx
    ray = points[pairs[idx_p, 0], 1] - cy
    rbx = points[pairs[idx_p, 1], 0] - cx
    rby = points[pairs[idx_p, 1], 1] - cy

    t_lo = tz_lo[idx_b, idx_p]
    t_hi = tz_hi[idx_b, idx_p]
    for o, e, h in (
        (cos * rax + sin * ray, cos * rbx + sin * rby, box_half_extents[idx_b, 0]),
        (cos * ray - sin * rax, cos * rby - sin * rbx, box_half_extents[idx_b, 1]),
    ):
        d = e - o
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (-h - o) / d
            t1 = (h - o) / d
        lo = np.minimum(t0, t1)
        hi = np.maximum(t0, t1)
        parallel = d == 0.0
        if parallel.any():
            inside = np.abs(o) <= h
            lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
            hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
        t_lo = np.maximum(t_lo, lo)
        t_hi = np.minimum(t_hi, hi)

    hit = t_lo <= t_hi
    np.add.at(counts, idx_p[hit], 1)
    return counts


def oracle_pose_at(plan, s: float) -> tuple[float, float, float]:
    """(x, y, heading) at progress ``s`` along ``plan``: the numpy lookup
    ``RoutePlan.pose_at`` replaced, with the heading computed per call."""
    cum = np.asarray(plan.cum_lengths)
    if s <= 0.0:
        i = 0
    else:
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(plan.waypoints) - 2)
    ax, ay = plan.waypoints[i]
    bx, by = plan.waypoints[i + 1]
    seg = float(cum[i + 1] - cum[i])
    frac = min(max((s - float(cum[i])) / seg, 0.0), 1.0)
    heading = math.atan2(by - ay, bx - ax)
    return (ax + (bx - ax) * frac, ay + (by - ay) * frac, heading)


def oracle_path_loss(d: float, blockers: int, classes, atmospheric_db_per_km: float) -> float:
    """Inline restatement of the attenuation formula for cross-checks.

    ``classes`` are (max_blockers, rho, gamma) triples, last unbounded.
    """
    for max_b, rho, gamma in classes:
        if max_b is None or blockers <= max_b:
            return 10.0 * rho * math.log10(d) + gamma + atmospheric_db_per_km * d / 1000.0
    raise AssertionError("no class matched")


def oracle_topology_edges(snapshot, classes, atmospheric_db_per_km, max_range, budget):
    """First-principles edge set: sampling occlusion plus inline path loss.

    Returns {frozenset({node_a, node_b}): blocker_count} for feasible links.
    """
    entities = [("rsu", None, snapshot.rsu_position)]
    entities += [
        (str(v.id), v.id, (v.position[0], v.position[1], v.antenna_height))
        for v in snapshot.vehicles
        if v.connected
    ]

    edges = {}
    for (name_a, id_a, pa), (name_b, id_b, pb) in combinations(entities, 2):
        d = math.dist(pa, pb)
        blockers = 0
        for v in snapshot.vehicles:
            if v.id == id_a or v.id == id_b:
                continue
            length, width, height = v.dimensions
            center = (v.position[0], v.position[1], height / 2.0)
            half = (length / 2.0, width / 2.0, height / 2.0)
            if oracle_occlusion(pa, pb, center, half, v.heading):
                blockers += 1
        loss = oracle_path_loss(d, blockers, classes, atmospheric_db_per_km)
        if loss <= budget and d <= max_range:
            edges[frozenset({name_a, name_b})] = blockers
    return edges


def oracle_shortest_path(graph, source, max_hops=None):
    """Exhaustive simple-path enumeration to the RSU.

    Paths are ranked by (hop count, summed path loss added source-first,
    node-key sequence); returns the winning node tuple or None. Refuses
    graphs with more than 8 nodes: this search is exponential on purpose.
    """
    if len(graph.nodes) > 8:
        raise ValueError("oracle refuses graphs larger than 8 nodes")
    rsu = [n for n in graph.nodes if node_key(n)[0] == 0][0]
    best = None

    def walk(node, visited, hops, loss, path):
        nonlocal best
        if node == rsu:
            key = (hops, loss, tuple(node_key(n) for n in path))
            if best is None or key < best[0]:
                best = (key, tuple(path))
            return
        if max_hops is not None and hops >= max_hops:
            return
        for neighbor, edge_loss in _neighbors(graph, node):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            path.append(neighbor)
            walk(neighbor, visited, hops + 1, loss + edge_loss, path)
            path.pop()
            visited.remove(neighbor)

    walk(source, {source}, 0, 0.0, [source])
    return None if best is None else best[1]


def oracle_hop_layers(adjacency):
    """Plain top-down BFS from node 0 over one ``{neighbour: loss}`` dict
    per node: the hop depth of every node (None if unreachable), and per
    node its (neighbour, loss) pairs one layer closer to node 0, in the
    dict's order. The layering the router used before it read layer 1
    from the RSU's row and found deeper layers bottom-up."""
    depth = [None] * len(adjacency)
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


def oracle_score_route(route, ground_truth) -> bool:
    """True iff the route exists and every hop holds in the ground truth:
    every node is looked up first, then every link, the formulation the
    one-pass hop walk of ``routing.score_route`` replaced."""
    if route is None:
        return False
    index = ground_truth.index
    ks = [index.get(node) for node in route]
    if None in ks:
        return False
    adjacency = ground_truth.adjacency
    return all(b in adjacency[a] for a, b in zip(ks, ks[1:]))


def oracle_dijkstra_route(graph, source, max_hops=None):
    """Heap Dijkstra on (hops, loss, path) labels from the source.

    The reference the layered router must equal route for route:
    settle-once order is exact for the full lexicographic objective
    because every edge adds a hop. Returns the winning node tuple or
    None; a direct link to the RSU wins regardless of ``max_hops``.
    """
    rsu = graph.nodes[0]
    if graph.has_edge(source, rsu):
        return (source, rsu)
    if max_hops is not None and max_hops <= 1:
        return None

    start_label = (0, 0.0, (node_key(source),))
    heap = [(*start_label, source)]
    settled = set()
    paths = {source: (source,)}
    best = {source: start_label}
    while heap:
        hops, loss, key_path, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == rsu:
            return paths[node]
        if max_hops is not None and hops >= max_hops:
            continue
        for neighbor, edge_loss in _neighbors(graph, node):
            if neighbor in settled:
                continue
            label = (hops + 1, loss + edge_loss, key_path + (node_key(neighbor),))
            if neighbor not in best or label < best[neighbor]:
                best[neighbor] = label
                paths[neighbor] = paths[node] + (neighbor,)
                heapq.heappush(heap, (*label, neighbor))
    return None


def oracle_reliability(counts: list[tuple[int, int]]) -> float:
    """Ratio of sums over (satisfied, total) pairs."""
    sat = sum(s for s, _ in counts)
    tot = sum(t for _, t in counts)
    return sat / tot


def oracle_run(config, snapshots):
    """A whole run restated from the schedule's definitions.

    The first snapshot seeds the history and every later one is scored.
    A step ``t`` earlier than the first snapshot reads the first one.
    Every table routes each vehicle with ``oracle_dijkstra_route``:

    - realtime routes, at every scored step ``t``, the graph of step
      ``t - lag``;
    - conventional routes the graph of the first scored step and of every
      ``conventional_update_interval`` steps after it, with no lag, and
      holds that table until the next;
    - predictive plans at ``e - 1`` for the first scored step ``e`` and
      every ``prediction.interval`` steps after it. The plan reads the
      snapshots ``e - 1 - lag - window`` to ``e - 1 - lag``, forecasts
      the ``(x, y, heading)`` of every vehicle of the last of them from
      its observed states (a vehicle with too little history holds its
      last row), and routes the forecast graph of each step
      ``e … e - 1 + interval``. At each of those steps the forecast of
      every vehicle that is in the scored snapshot adds its x/y distance
      to the error sum.

    Returns one ``(timestep, total, satisfied, mean hops)`` per scored
    step, and the mean forecast error (None without a forecast),
    summed step by step in forecast order.
    """
    snaps = list(snapshots)
    first = snaps[0].timestep
    dt = config.dt
    lag = delay_to_steps(config.latency_delta, dt)
    window = seconds_to_steps(config.prediction.history_window, dt)
    interval = seconds_to_steps(config.prediction.interval, dt)
    period = seconds_to_steps(config.conventional_update_interval, dt)
    predictor = make_predictor(config.prediction.predictor)

    def graph(snap):
        return build_topology(snap, config.channel, config.link_budget_db)

    def routes(g):
        return {v: oracle_dijkstra_route(g, v, config.max_hops) for v in g.nodes[1:]}

    def plan(now):
        """{step: (table, [(vehicle, x, y)] in forecast order)} of the epoch
        planned at ``now``."""
        end = max(now - lag - first, 0)
        history = snaps[max(end - window, 0):end + 1]
        last = history[-1]
        steps = interval + now - last.timestep
        tracks = []  # (last observed state, forecast (x, y, heading) rows) per vehicle
        for vid in last.fleet.ids:
            states = [s.vehicle(s.fleet.ids.index(vid)) for s in history if vid in s.fleet.ids]
            held = states[-1]
            if len(states) >= predictor.min_history:
                tracks.append((held, predictor.extrapolate(states, steps, dt)))
            else:
                tracks.append((held, [(*held.position[:2], held.heading)] * steps))
        epoch = {}
        for t in range(now + 1, now + interval + 1):
            k = t - last.timestep - 1
            moved = [
                dataclasses.replace(held, position=(*rows[k][:2], 0.0), heading=rows[k][2])
                for held, rows in tracks
            ]
            g = graph(WorldSnapshot.from_vehicles(t, moved, last.rsu_position))
            epoch[t] = (routes(g), [(s.id, s.position[0], s.position[1]) for s in moved])
        return epoch

    rows = []
    error_sum, error_count = 0.0, 0
    start = first + 1
    for snap in snaps[1:]:
        t = snap.timestep
        if config.strategy is Strategy.REALTIME:
            table = routes(graph(snaps[max(t - lag - first, 0)]))
        elif config.strategy is Strategy.CONVENTIONAL:
            if (t - start) % period == 0:
                table = routes(graph(snap))
        else:
            if (t - start) % interval == 0:
                epoch = plan(t - 1)
            table, forecast = epoch[t]
            actual = dict(zip(snap.fleet.ids, snap.xy_yaw.tolist()))
            for vid, x, y in forecast:
                if vid in actual:
                    dx = x - actual[vid][0]
                    dy = y - actual[vid][1]
                    error_sum += (dx * dx + dy * dy) ** 0.5
                    error_count += 1
        truth = graph(snap)
        routes_held = map(table.get, truth.nodes[1:])
        valid = [route for route in routes_held if oracle_score_route(route, truth)]
        hops = sum(len(route) - 1 for route in valid)
        rows.append((t, len(truth.nodes) - 1, len(valid), hops / len(valid) if valid else 0.0))
    return rows, (error_sum / error_count if error_count else None)
