from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from twinroute import engine
from twinroute.channel import default_channel_params, path_loss
from twinroute.config import default_config
from twinroute.engine import run_single
from twinroute.model import NodeId, Strategy
from twinroute.routing import route_predictive
from twinroute.topology import build_topologies, build_topology, dump_topology_stream

from conftest import SEDAN, TRUCK, make_snapshot, make_vehicle
from oracles import oracle_topology_edges

PARAMS = default_channel_params()
BUDGET = 110.0


def classes_as_tuples(params):
    return [(c.max_blockers, c.rho, c.gamma) for c in params.classes]


def test_no_connected_vehicles_graph_is_rsu_only():
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0, connected=False)])
    g = build_topology(snap, PARAMS, BUDGET)
    assert g.nodes == (NodeId.rsu(),)
    assert g.edges == {}


def test_two_nearby_vehicles_form_triangle():
    # both within RSU range, 5 m apart, nothing in between, generous budget
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 0.0)])
    g = build_topology(snap, PARAMS, budget_db=130.0)
    assert len(g.nodes) == 3
    assert len(g.edges) == 3
    v0, v1 = NodeId.vehicle(0), NodeId.vehicle(1)
    assert g.has_edge(v0, v1) and g.has_edge(NodeId.rsu(), v0) and g.has_edge(NodeId.rsu(), v1)
    assert g.edge(v0, v1).distance_m == pytest.approx(5.0)


def test_unconnected_truck_blocks_rsu_link():
    """A truck body between a sedan and the RSU pushes the link over budget."""
    sedan = make_vehicle(0, 50.0, 0.0, heading=math.pi)
    truck = make_vehicle(1, 30.0, 0.0, heading=math.pi, connected=False, body=TRUCK)
    snap = make_snapshot([sedan, truck])

    # sight line height at the truck: 1.6 + (5 - 1.6) * (20/50) = 2.96 < 3.2
    g = build_topology(snap, PARAMS, BUDGET)
    assert g.nodes == (NodeId.rsu(), NodeId.vehicle(0))
    assert not g.has_edge(NodeId.rsu(), NodeId.vehicle(0))

    # same geometry without the truck is well under budget
    clear = build_topology(make_snapshot([sedan]), PARAMS, BUDGET)
    assert clear.has_edge(NodeId.rsu(), NodeId.vehicle(0))
    d = math.dist(sedan.antenna, (0.0, 0.0, 5.0))
    assert clear.edge(NodeId.rsu(), NodeId.vehicle(0)).path_loss_db == pytest.approx(
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
        g = build_topology(snap, PARAMS, BUDGET)
        assert len(g.nodes) == 1 + len(snap.connected_vehicles())
        for a, b in g.edges:
            assert a in g.nodes and b in g.nodes
            assert a != b
            assert g.edges[(a, b)].feasible


def test_extra_obstacle_never_adds_an_edge():
    rng = np.random.default_rng(17)
    for trial in range(25):
        vehicles = [
            make_vehicle(i, float(rng.uniform(-60, 60)), float(rng.uniform(-60, 60)))
            for i in range(4)
        ]
        snap = make_snapshot(vehicles)
        before = set(build_topology(snap, PARAMS, BUDGET).edges)
        blocker = make_vehicle(
            50,
            float(rng.uniform(-60, 60)),
            float(rng.uniform(-60, 60)),
            heading=float(rng.uniform(-3, 3)),
            connected=False,
            body=TRUCK,
        )
        after = set(build_topology(make_snapshot(vehicles + [blocker]), PARAMS, BUDGET).edges)
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
        g = build_topology(snap, PARAMS, BUDGET)
        got = {frozenset({str(a), str(b)}): link.blockers for (a, b), link in g.edges.items()}
        want = oracle_topology_edges(
            snap, classes_as_tuples(PARAMS), PARAMS.atmospheric_db_per_km, PARAMS.max_range_m, BUDGET
        )
        assert got == want, trial


def test_dump_format():
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 0.0)], timestep=7)
    g = build_topology(snap, PARAMS, budget_db=130.0)
    buf = io.StringIO()
    dump_topology_stream([g], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "timestep,node_a,node_b,distance_m,blockers,path_loss_db"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("7,rsu,v0,")


def assert_same_graph(got, want):
    assert got.timestep == want.timestep
    assert got.nodes == want.nodes
    assert got.index == want.index
    for name in ("edge_i", "edge_j", "edge_distance", "edge_blockers", "edge_loss"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert got.adjacency == want.adjacency
    assert [list(n) for n in got.adjacency] == [list(n) for n in want.adjacency]


def forecast_epochs(duration=20.0):
    """Every planning epoch's forecast snapshots of a 30-vehicle mixed run."""
    cfg = default_config(
        duration=duration, vehicle_count=30, connected_fraction=0.5, seed=1,
        strategy=Strategy.PREDICTIVE,
    )
    epochs = []

    def capture(history, now, *args, **kwargs):
        plan = route_predictive(history, now, *args, **kwargs)
        epochs.append(list(plan.forecast.values()))
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "route_predictive", capture)
        run_single(cfg)
    return cfg, epochs


def test_batched_build_equals_one_build_per_snapshot():
    cfg, epochs = forecast_epochs()
    assert len(epochs) == 10
    for snaps in epochs:
        got = build_topologies(snaps, cfg.channel, cfg.link_budget_db)
        assert len(got) == len(snaps) == 20
        for graph, snap in zip(got, snaps):
            assert_same_graph(graph, build_topology(snap, cfg.channel, cfg.link_budget_db))
    assert sum(len(g.edge_i) for g in got) > 0


def moving_pair(steps, rsu_height=5.0):
    """A connected sedan driving past an unconnected truck, and a second
    sedan leaving the RSU's range partway."""
    return [
        make_snapshot(
            [
                make_vehicle(0, 50.0 - 4.0 * k, 0.5, heading=math.pi),
                make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK),
                make_vehicle(2, 140.0 + 3.0 * k, 10.0),
            ],
            timestep=10 + k,
            rsu_height=rsu_height,
        )
        for k in range(steps)
    ]


def test_batched_build_handles_range_and_blockers_changing_per_step():
    snaps = moving_pair(8)
    got = build_topologies(snaps, PARAMS, budget_db=130.0)
    for graph, snap in zip(got, snaps):
        assert_same_graph(graph, build_topology(snap, PARAMS, budget_db=130.0))
    assert {int(b) for g in got for b in g.edge_blockers} == {0, 1}
    v2 = NodeId.vehicle(2)
    assert [g.has_edge(NodeId.rsu(), v2) for g in got[:2]] == [True, True]
    assert not got[-1].has_edge(NodeId.rsu(), v2)


def test_batched_build_of_vehicle_free_snapshots():
    snaps = [make_snapshot([], timestep=t) for t in (3, 4, 5)]
    got = build_topologies(snaps, PARAMS, BUDGET)
    assert [g.timestep for g in got] == [3, 4, 5]
    for graph, snap in zip(got, snaps):
        assert graph.nodes == (NodeId.rsu(),)
        assert graph.adjacency == [{}]
        assert_same_graph(graph, build_topology(snap, PARAMS, BUDGET))
        assert graph.edge_i.dtype == np.int64 and graph.edge_loss.dtype == np.float64
    assert build_topologies([], PARAMS, BUDGET) == []


@pytest.mark.parametrize(
    "change",
    [
        lambda vs: vs[:1],  # a vehicle left
        lambda vs: [vs[1], vs[0]],  # another order
        lambda vs: [vs[0], make_vehicle(5, 30.0, 0.0)],  # another id
        lambda vs: [vs[0], dataclasses.replace(vs[1], connected=True)],
        lambda vs: [vs[0], dataclasses.replace(vs[1], dimensions=(9.0, 2.5, 3.2))],
        lambda vs: [vs[0], dataclasses.replace(vs[1], antenna_height=3.0)],
    ],
    ids=["count", "order", "id", "connected", "body", "antenna"],
)
def test_batched_build_rejects_snapshots_with_other_vehicles(change):
    vehicles = [make_vehicle(0, 50.0, 0.0), make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK)]
    snaps = [make_snapshot(vehicles, timestep=1), make_snapshot(change(vehicles), timestep=2)]
    with pytest.raises(ValueError, match="timestep 2: vehicles differ"):
        build_topologies(snaps, PARAMS, BUDGET)


def test_coincident_vehicle_antennas_rejected():
    snap = make_snapshot([make_vehicle(1, 20.0, 0.0), make_vehicle(2, 20.0, 0.0)])
    with pytest.raises(ValueError, match="timestep 0: antennas of v1 and v2 coincide"):
        build_topology(snap, PARAMS, BUDGET)


def test_vehicle_antenna_at_the_rsu_rejected():
    # a sedan antenna sits 1.6 m up; so does this RSU
    snap = make_snapshot([make_vehicle(1, 0.0, 0.0)], timestep=4, rsu_height=1.6)
    with pytest.raises(ValueError, match="timestep 4: antennas of rsu and v1 coincide"):
        build_topology(snap, PARAMS, BUDGET)


def test_coincident_antennas_rejected_at_their_step_of_a_batch():
    moving = [make_vehicle(1, 20.0 + k, 0.0) for k in range(3)]
    snaps = [
        make_snapshot([v, make_vehicle(2, 21.0, 0.0)], timestep=7 + k) for k, v in enumerate(moving)
    ]
    with pytest.raises(ValueError, match="timestep 8: antennas of v1 and v2 coincide"):
        build_topologies(snaps, PARAMS, BUDGET)
