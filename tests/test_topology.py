from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from twinroute import engine, routing, topology
from twinroute.channel import default_channel_params, link_radius, path_loss
from twinroute.config import IntersectionGeometry, default_config
from twinroute.engine import run_single
from twinroute.model import NodeId, Strategy, WorldSnapshot
from twinroute.topology import TOPOLOGY_DUMP_HEADER, build_topologies, dump_topology, feasible_links

from conftest import SEDAN, SHORT_LINK_CHANNEL, TRUCK, links, make_snapshot, make_vehicle
from oracles import adjacency, oracle_topology_edges, snapshot_graph

PARAMS = default_channel_params()
BUDGET = 110.0


def classes_as_tuples(params):
    return [(c.max_blockers, c.rho, c.gamma) for c in params.classes]


def test_a_link_exactly_max_range_long_is_an_edge():
    # 4 m apart on the ground under a 3 m height gap: 5.0 m exactly
    params = dataclasses.replace(PARAMS, max_range_m=5.0)
    body = dict(dimensions=(4.5, 1.8, 1.5), antenna_height=2.0)
    snap = make_snapshot([make_vehicle(0, 4.0, 0.0, body=body)], rsu_height=5.0)
    g = snapshot_graph(snap, params, BUDGET)
    assert g.edge_distance.tolist() == [5.0]
    assert (NodeId.rsu(), NodeId.vehicle(0)) in links(g)
    beyond = make_snapshot([make_vehicle(0, np.nextafter(4.0, 5.0), 0.0, body=body)], rsu_height=5.0)
    assert links(snapshot_graph(beyond, params, BUDGET)) == {}


def test_no_connected_vehicles_graph_is_rsu_only():
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0, connected=False)])
    g = snapshot_graph(snap, PARAMS, BUDGET)
    assert g.nodes == (NodeId.rsu(),)
    assert links(g) == {}


def test_two_nearby_vehicles_form_triangle():
    # both within RSU range, 5 m apart, nothing in between, generous budget
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 0.0)])
    g = snapshot_graph(snap, PARAMS, budget_db=130.0)
    assert len(g.nodes) == 3
    assert len(g.edges) == 3
    v0, v1 = NodeId.vehicle(0), NodeId.vehicle(1)
    assert set(links(g)) == {(v0, v1), (NodeId.rsu(), v0), (NodeId.rsu(), v1)}
    assert links(g)[(v0, v1)].distance_m == pytest.approx(5.0)


def test_unconnected_truck_blocks_rsu_link():
    """A truck body between a sedan and the RSU pushes the link over budget."""
    sedan = make_vehicle(0, 50.0, 0.0, heading=math.pi)
    truck = make_vehicle(1, 30.0, 0.0, heading=math.pi, connected=False, body=TRUCK)
    snap = make_snapshot([sedan, truck])

    # sight line height at the truck: 1.6 + (5 - 1.6) * (20/50) = 2.96 < 3.2
    g = snapshot_graph(snap, PARAMS, BUDGET)
    assert g.nodes == (NodeId.rsu(), NodeId.vehicle(0))
    assert links(g) == {}

    # same geometry without the truck is well under budget
    clear = snapshot_graph(make_snapshot([sedan]), PARAMS, BUDGET)
    assert (NodeId.rsu(), NodeId.vehicle(0)) in links(clear)
    d = math.dist((50.0, 0.0, sedan.antenna_height), (0.0, 0.0, 5.0))
    assert links(clear)[(NodeId.rsu(), NodeId.vehicle(0))].path_loss_db == pytest.approx(
        path_loss(d, 0, PARAMS)
    )


def test_node_count_is_one_plus_connected():
    rng = np.random.default_rng(3)
    for _ in range(30):
        vehicles = [
            make_vehicle(
                i,
                float(rng.uniform(-80, 80)),
                float(rng.uniform(-80, 80)),
                connected=bool(rng.random() < 0.6),
            )
            for i in range(int(rng.integers(0, 10)))
        ]
        snap = make_snapshot(vehicles)
        g = snapshot_graph(snap, PARAMS, BUDGET)
        assert len(g.nodes) == 1 + sum(v.connected for v in snap.vehicles)
        for (a, b), link in links(g).items():
            assert a in g.nodes and b in g.nodes
            assert a != b
            assert link.path_loss_db <= BUDGET and link.distance_m <= PARAMS.max_range_m


def test_extra_obstacle_never_adds_an_edge():
    rng = np.random.default_rng(17)
    for trial in range(25):
        vehicles = [
            make_vehicle(i, float(rng.uniform(-60, 60)), float(rng.uniform(-60, 60)))
            for i in range(4)
        ]
        snap = make_snapshot(vehicles)
        before = set(links(snapshot_graph(snap, PARAMS, BUDGET)))
        blocker = make_vehicle(
            50,
            float(rng.uniform(-60, 60)),
            float(rng.uniform(-60, 60)),
            heading=float(rng.uniform(-3, 3)),
            connected=False,
            body=TRUCK,
        )
        after = set(links(snapshot_graph(make_snapshot(vehicles + [blocker]), PARAMS, BUDGET)))
        assert after <= before, trial


def test_matches_first_principles_oracle(fuzz_scale):
    rng = np.random.default_rng(101)
    for trial in range(40 * fuzz_scale):
        vehicles = []
        for i in range(int(rng.integers(1, 7))):
            body = [SEDAN, TRUCK][int(rng.integers(0, 2))]
            vehicles.append(
                make_vehicle(
                    i,
                    float(rng.uniform(-70, 70)),
                    float(rng.uniform(-70, 70)),
                    heading=float(rng.uniform(-np.pi, np.pi)),
                    connected=bool(rng.random() < 0.7),
                    body=body,
                )
            )
        snap = make_snapshot(vehicles)
        g = snapshot_graph(snap, PARAMS, BUDGET)
        got = {frozenset({str(a), str(b)}): link.blockers for (a, b), link in links(g).items()}
        want = oracle_topology_edges(
            snap, classes_as_tuples(PARAMS), PARAMS.atmospheric_db_per_km, PARAMS.max_range_m, BUDGET
        )
        assert got == want, trial


def test_dump_format():
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 0.0)], timestep=7)
    g = snapshot_graph(snap, PARAMS, budget_db=130.0)
    buf = io.StringIO()
    buf.write(TOPOLOGY_DUMP_HEADER)
    dump_topology(g, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "timestep,node_a,node_b,distance_m,blockers,path_loss_db"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("7,rsu,v0,")


def assert_same_graph(got, want):
    assert got.timestep == want.timestep
    assert got.nodes == want.nodes
    assert got.index == want.index
    assert got.edges.dtype == np.int64 and got.edges.shape == (len(got.edge_loss), 2)
    for name in ("edges", "edge_distance", "edge_blockers", "edge_loss"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert list(got.rsu_row.items()) == list(want.rsu_row.items())
    assert [(v, list(row.items())) for v, row in got.missed.items()] == [
        (v, list(row.items())) for v, row in want.missed.items()
    ]


def snapshots_of(snapshot, timesteps, xy_yaw):
    """The snapshot of ``snapshot``'s vehicles at each step's (x, y,
    heading) rows, one build at a time."""
    return [
        WorldSnapshot.from_vehicles(
            ts,
            tuple(
                dataclasses.replace(v, position=(x, y, 0.0), heading=h)
                for v, (x, y, h) in zip(snapshot.vehicles, step)
            ),
            snapshot.rsu_position,
        )
        for ts, step in zip(timesteps, xy_yaw.tolist())
    ]


def forecast_epochs(duration=20.0):
    """The ``build_topologies`` inputs of every planning epoch of a
    30-vehicle mixed run, which builds its forecast graphs from them:
    (snapshot, timesteps, xy_yaw)."""
    cfg = default_config(
        duration=duration, vehicle_count=30, connected_fraction=0.5, seed=1,
        strategy=Strategy.PREDICTIVE,
    )
    epochs = []

    def capture(*args):
        epochs.append(args[:3])
        return build_topologies(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "build_topologies", capture)
        run_single(cfg)
    return cfg, epochs


def test_batched_build_equals_one_build_per_snapshot():
    cfg, epochs = forecast_epochs()
    assert len(epochs) == 10
    for epoch in epochs:
        got = build_topologies(*epoch, cfg.channel, cfg.link_budget_db)
        snaps = snapshots_of(*epoch)
        assert len(got) == len(snaps) == 20
        for graph, snap in zip(got, snaps):
            assert_same_graph(graph, snapshot_graph(snap, cfg.channel, cfg.link_budget_db))
    assert sum(len(g.edges) for g in got) > 0


def test_every_graph_of_a_predictive_run_keeps_the_edge_layout():
    """Every truth build and the graphs of every forecast epoch's poses:
    ``edges`` rows strictly ascend with i < j, and the RSU's row and the
    rows it misses are those of the full adjacency of those rows with
    their losses, key order included."""
    truth = []

    def kept(*args):
        got = build_topologies(*args)
        truth.extend(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "build_topologies", kept)
        cfg, epochs = forecast_epochs()
    forecast = [g for epoch in epochs for g in build_topologies(*epoch, cfg.channel, cfg.link_budget_db)]
    assert len(truth) == 200 and len(forecast) == 200
    for graph in truth + forecast:
        edges = graph.edges
        assert edges.dtype == np.int64 and edges.shape == (len(graph.edge_loss), 2)
        i, j = edges.T
        assert (i < j).all()
        assert (np.diff(i * len(graph.nodes) + j) > 0).all()
        want = adjacency(graph)
        assert list(graph.rsu_row.items()) == list(want[0].items())
        assert [(v, list(row.items())) for v, row in graph.missed.items()] == [
            (v, list(want[v].items())) for v in range(1, len(want)) if v not in want[0]
        ]
    assert sum(len(g.edges) for g in truth) > 0 and sum(len(g.edges) for g in forecast) > 0


def test_the_link_rows_are_every_step_s_edge_rows():
    """``feasible_links`` of a forecast epoch: each step's rows, in step
    order, are that step's graph's edge rows and link stats."""
    cfg, epochs = forecast_epochs(duration=5.0)
    assert epochs
    for epoch in epochs:
        links = feasible_links(*epoch, cfg.channel, cfg.link_budget_db)
        graphs = build_topologies(*epoch, cfg.channel, cfg.link_budget_db)
        assert links.ij.shape == (2, len(links.step))
        want_step = np.concatenate([np.full(len(g.edges), s) for s, g in enumerate(graphs)])
        assert links.step.tolist() == want_step.tolist()
        assert np.array_equal(links.ij.T, np.concatenate([g.edges for g in graphs]))
        for name, column in (("distance", "edge_distance"), ("blockers", "edge_blockers"), ("loss", "edge_loss")):
            want = np.concatenate([getattr(g, column) for g in graphs])
            assert getattr(links, name).tobytes() == want.tobytes(), name


def moving_pair(steps, rsu_height=5.0):
    """A connected sedan driving past an unconnected truck, and a second
    sedan leaving the RSU's range partway: (snapshot, timesteps, xy_yaw)."""
    vehicles = [
        make_vehicle(0, 50.0, 0.5, heading=math.pi),
        make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK),
        make_vehicle(2, 140.0, 10.0),
    ]
    xy_yaw = np.array(
        [
            [(50.0 - 4.0 * k, 0.5, math.pi), (30.0, 0.0, 0.0), (140.0 + 3.0 * k, 10.0, 0.0)]
            for k in range(steps)
        ]
    )
    return make_snapshot(vehicles, rsu_height=rsu_height), range(10, 10 + steps), xy_yaw


def test_batched_build_handles_range_and_blockers_changing_per_step():
    batch = moving_pair(8)
    got = build_topologies(*batch, PARAMS, budget_db=130.0)
    for graph, snap in zip(got, snapshots_of(*batch), strict=True):
        assert_same_graph(graph, snapshot_graph(snap, PARAMS, budget_db=130.0))
    assert {int(b) for g in got for b in g.edge_blockers} == {0, 1}
    v2 = NodeId.vehicle(2)
    assert [(NodeId.rsu(), v2) in links(g) for g in got[:2]] == [True, True]
    assert (NodeId.rsu(), v2) not in links(got[-1])


def test_batched_build_reads_poses_not_the_vehicles_own():
    snap, timesteps, xy_yaw = moving_pair(3)
    elsewhere = make_snapshot(
        [dataclasses.replace(v, position=(-300.0, 0.0, 0.0)) for v in snap.vehicles]
    )
    got = build_topologies(elsewhere, timesteps, xy_yaw, PARAMS, 130.0)
    want = build_topologies(snap, timesteps, xy_yaw, PARAMS, 130.0)
    for a, b in zip(got, want, strict=True):
        assert_same_graph(a, b)


def test_batched_build_of_vehicle_free_snapshots():
    empty, no_poses = make_snapshot([]), np.empty((3, 0, 3))
    got = build_topologies(empty, [3, 4, 5], no_poses, PARAMS, BUDGET)
    assert [g.timestep for g in got] == [3, 4, 5]
    for graph, snap in zip(got, snapshots_of(empty, [3, 4, 5], no_poses)):
        assert graph.nodes == (NodeId.rsu(),)
        assert graph.rsu_row == {} and graph.missed == {}
        assert_same_graph(graph, snapshot_graph(snap, PARAMS, BUDGET))
        assert graph.edges.dtype == np.int64 and graph.edges.shape == (0, 2)
        assert graph.edge_loss.dtype == np.float64
    assert build_topologies(empty, [], np.empty((0, 0, 3)), PARAMS, BUDGET) == []


def test_coincident_vehicle_antennas_rejected():
    snap = make_snapshot([make_vehicle(1, 20.0, 0.0), make_vehicle(2, 20.0, 0.0)])
    with pytest.raises(ValueError, match="timestep 0: antennas of v1 and v2 coincide"):
        snapshot_graph(snap, PARAMS, BUDGET)


def test_vehicle_antenna_at_the_rsu_rejected():
    # a sedan antenna sits 1.6 m up; so does this RSU
    snap = make_snapshot([make_vehicle(1, 0.0, 0.0)], timestep=4, rsu_height=1.6)
    with pytest.raises(ValueError, match="timestep 4: antennas of rsu and v1 coincide"):
        snapshot_graph(snap, PARAMS, BUDGET)


def test_coincident_antennas_rejected_at_their_step_of_a_batch():
    snap = make_snapshot([make_vehicle(1, 20.0, 0.0), make_vehicle(2, 21.0, 0.0)])
    xy_yaw = np.array([[(20.0 + k, 0.0, 0.0), (21.0, 0.0, 0.0)] for k in range(3)])
    with pytest.raises(ValueError, match="timestep 8: antennas of v1 and v2 coincide"):
        build_topologies(snap, [7, 8, 9], xy_yaw, PARAMS, BUDGET)


@pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 3), (3, 2, 2)])
def test_batched_build_rejects_poses_of_the_wrong_shape(shape):
    snap = make_snapshot([make_vehicle(1, 20.0, 0.0), make_vehicle(2, 21.0, 0.0)])
    with pytest.raises(ValueError, match=r"xy_yaw has shape .*, not \(3, 2, 3\)"):
        build_topologies(snap, [7, 8, 9], np.zeros(shape), PARAMS, BUDGET)


def test_every_build_over_one_fleet_shares_its_derived_values():
    """The graph's nodes, index, owner keys and half bodies are derived
    once per fleet: every graph of every build over it shares its nodes
    tuple and index dict, and the arrays are read-only."""
    snap = make_snapshot([
        make_vehicle(2, 30.0, 5.0), make_vehicle(0, 25.0, 0.0, connected=False, body=TRUCK),
        make_vehicle(1, 20.0, 0.0),
    ])
    fleet = snap.fleet
    one = snapshot_graph(snap, PARAMS, BUDGET)
    two = build_topologies(snap, [1, 2], np.stack([snap.xy_yaw] * 2), PARAMS, BUDGET)
    assert fleet.nodes == (NodeId.rsu(), NodeId.vehicle(1), NodeId.vehicle(2))
    assert all(g.nodes is fleet.nodes and g.index is fleet.index for g in (one, *two))
    assert fleet.index == {n: k for k, n in enumerate(fleet.nodes)}
    assert fleet.owner_keys.tolist() == [-1, 3, 5]  # the RSU, then the id codes 2k + 1
    assert fleet.halves.tolist() == (fleet.bodies / 2.0).tolist()
    assert not (fleet.owner_keys.flags.writeable or fleet.halves.flags.writeable)


def random_scene(rng, radius):
    """A few steps of up to a dozen vehicles scattered over 240 m, with
    random bodies and headings: (snapshot, timesteps, xy_yaw). About a
    quarter of them start within a meter of another, and a fifth with
    their antenna within 1e-6 of ``radius`` from the RSU's, if that is
    over 1 m."""
    n_vehicles, n_steps = int(rng.integers(1, 13)), int(rng.integers(1, 5))
    vehicles = []
    for i in range(n_vehicles):
        body = [SEDAN, TRUCK][int(rng.integers(0, 2))]
        x, y = rng.uniform(-120, 120, size=2)
        draw = rng.random()
        if draw < 0.2 and radius > 1.0:
            # a sedan's antenna is level with the RSU's, so its ground and
            # 3-D distances from it are equal
            body, angle = SEDAN, rng.uniform(-np.pi, np.pi)
            d = radius * (1.0 + rng.uniform(-1e-6, 1e-6))
            x, y = d * math.cos(angle), d * math.sin(angle)
        elif vehicles and draw < 0.45:
            near = vehicles[int(rng.integers(0, len(vehicles)))].position
            x, y = near[0] + rng.uniform(-1, 1), near[1] + rng.uniform(-1, 1)
        vehicles.append(make_vehicle(
            i, float(x), float(y), heading=float(rng.uniform(-np.pi, np.pi)),
            connected=bool(rng.random() < 0.7), body=body,
        ))
    snap = make_snapshot(vehicles, rsu_height=SEDAN["antenna_height"])
    moves = rng.normal(scale=3.0, size=(n_steps, n_vehicles, 3)).cumsum(axis=0)
    moves[0] = 0.0
    return snap, range(n_steps), snap.xy_yaw + moves


def test_the_link_radius_changes_no_link_row(fuzz_scale, monkeypatch):
    """On random scenes, channels and budgets, ``feasible_links`` gives the
    same five columns, dtypes included, as the same call whose ground
    test uses the maximum range in place of the link radius."""
    rng = np.random.default_rng(35)
    cases = []
    for trial in range(150 * fuzz_scale):
        params = [PARAMS, SHORT_LINK_CHANNEL][int(rng.integers(0, 2))]
        budget = float(rng.uniform(30.0, 150.0))
        scene = random_scene(rng, link_radius(params, budget))
        cases.append((trial, scene, params, budget, feasible_links(*scene, params, budget)))
    monkeypatch.setattr(topology, "link_radius", lambda params, budget_db: params.max_range_m)
    cut = 0
    for trial, scene, params, budget, got in cases:
        want = feasible_links(*scene, params, budget)
        for name, a, b in zip(want._fields, got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (trial, name)
            assert a.tobytes() == b.tobytes(), (trial, name)
        cut += link_radius(params, budget) < params.max_range_m
    assert cut > 100 * fuzz_scale


def test_the_kernel_sees_only_pairs_within_the_link_radius(monkeypatch):
    """In a dense run (60 connected vehicles on 2 lanes), every pair each
    truth build hands the blockage kernel lies within the link radius in
    ground distance at some step, and every such pair is handed over;
    some pairs within the maximum range lie beyond it."""
    cfg = default_config(
        duration=15.0, vehicle_count=60, connected_fraction=1.0,
        intersection=IntersectionGeometry(lane_count=2),
    )
    radius = link_radius(cfg.channel, cfg.link_budget_db)
    max_range = cfg.channel.max_range_m
    assert radius < 0.75 * max_range
    calls = []

    def spy(points, pairs, *args):
        calls.append((points, pairs))
        return blockage_count_matrix(points, pairs, *args)

    blockage_count_matrix = topology.blockage_count_matrix
    monkeypatch.setattr(topology, "blockage_count_matrix", spy)
    run_single(cfg)
    assert len(calls) > 10
    beyond = 0
    for points, pairs in calls:
        i, j = np.triu_indices(points.shape[1], k=1)
        dx, dy = points[:, i, 0] - points[:, j, 0], points[:, i, 1] - points[:, j, 1]
        ground_sq = dx * dx + dy * dy
        within = (ground_sq <= radius * radius).any(axis=0)
        assert pairs.tolist() == np.stack([i, j], axis=1)[within].tolist()
        beyond += int(((ground_sq <= max_range * max_range).any(axis=0) & ~within).sum())
    assert beyond > 0


def test_coincident_antennas_rejected_under_a_short_link_radius():
    # under a 40 dB budget no class closes a link longer than 4 cm
    assert link_radius(PARAMS, 40.0) < 0.05
    snap = make_snapshot([make_vehicle(1, 20.0, 0.0), make_vehicle(2, 20.0, 0.0)])
    with pytest.raises(ValueError, match="timestep 0: antennas of v1 and v2 coincide"):
        snapshot_graph(snap, PARAMS, 40.0)
