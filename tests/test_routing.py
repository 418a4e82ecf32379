from __future__ import annotations

import io
import math

import numpy as np
import pytest

from twinroute.channel import LinkAssessment, default_channel_params
from twinroute.model import NodeId
from twinroute.prediction import ConstantVelocityPredictor
from twinroute.routing import (
    Route,
    dump_route_table,
    route_predictive,
    route_realtime,
    score_route,
    shortest_route,
)
from twinroute.topology import ConnectivityGraph, _finish_graph, build_topology

from conftest import TRUCK, make_snapshot, make_vehicle
from oracles import oracle_shortest_path

PARAMS = default_channel_params()
RSU = NodeId.rsu()


def graph_from_edges(edges: dict[tuple[int | str, int | str], float], timestep: int = 0):
    """Hand-built graph; node 'rsu' or integer vehicle index, weight = path loss."""

    def as_node(x):
        return RSU if x == "rsu" else NodeId.vehicle(x)

    nodes = set()
    edge_map = {}
    for (a, b), loss in edges.items():
        na, nb = as_node(a), as_node(b)
        nodes.update((na, nb))
        key = (na, nb) if na < nb else (nb, na)
        edge_map[key] = LinkAssessment(10.0, 0, loss, True)
    nodes.add(RSU)
    return _finish_graph(timestep, sorted(nodes, key=lambda n: n.sort_key), edge_map)


def random_graph(rng, quantized: bool) -> ConnectivityGraph:
    n_vehicles = int(rng.integers(1, 8))
    nodes = [RSU] + [NodeId.vehicle(i) for i in range(n_vehicles)]
    p_edge = float(rng.uniform(0.15, 0.8))
    edges = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < p_edge:
                if quantized:
                    loss = float(rng.choice([80.0, 95.0, 110.0]))
                else:
                    loss = float(rng.uniform(60.0, 160.0))
                edges[(nodes[i], nodes[j])] = LinkAssessment(10.0, 0, loss, True)
    return _finish_graph(0, nodes, edges)


def test_direct_edge_is_the_route():
    g = graph_from_edges({(0, "rsu"): 100.0, (0, 1): 60.0, (1, "rsu"): 60.0})
    route = shortest_route(g, NodeId.vehicle(0))
    assert route.hops == (NodeId.vehicle(0), RSU)
    assert route.hop_count == 1


def test_unreachable_returns_none():
    g = graph_from_edges({(0, 1): 80.0})
    assert shortest_route(g, NodeId.vehicle(0)) is None


def test_two_hop_beats_lossier_nothing():
    g = graph_from_edges({(0, 1): 80.0, (1, "rsu"): 80.0})
    route = shortest_route(g, NodeId.vehicle(0))
    assert route.hops == (NodeId.vehicle(0), NodeId.vehicle(1), RSU)


def test_loss_breaks_hop_ties():
    g = graph_from_edges(
        {(0, 1): 80.0, (1, "rsu"): 80.0, (0, 2): 70.0, (2, "rsu"): 80.0}
    )
    route = shortest_route(g, NodeId.vehicle(0))
    assert route.hops == (NodeId.vehicle(0), NodeId.vehicle(2), RSU)


def test_node_order_breaks_exact_ties():
    g = graph_from_edges(
        {(0, 1): 80.0, (1, "rsu"): 80.0, (0, 2): 80.0, (2, "rsu"): 80.0}
    )
    route = shortest_route(g, NodeId.vehicle(0))
    assert route.hops == (NodeId.vehicle(0), NodeId.vehicle(1), RSU)


def test_max_hops_cap():
    g = graph_from_edges({(0, 1): 80.0, (1, "rsu"): 80.0})
    assert shortest_route(g, NodeId.vehicle(0), max_hops=1) is None
    assert shortest_route(g, NodeId.vehicle(0), max_hops=2) is not None


def test_source_must_be_in_graph():
    g = graph_from_edges({(0, "rsu"): 80.0})
    with pytest.raises(ValueError):
        shortest_route(g, NodeId.vehicle(9))
    with pytest.raises(ValueError):
        shortest_route(g, RSU)


def test_matches_enumeration_oracle(fuzz_scale):
    """Seeded random graphs <= 8 nodes against exhaustive enumeration.

    Half the graphs draw weights from a tiny quantized set so exact-tie
    lexicographic ordering is actually exercised.
    """
    rng = np.random.default_rng(900)
    n = 150 * fuzz_scale
    for trial in range(n):
        g = random_graph(rng, quantized=trial % 2 == 0)
        for source in g.nodes[1:]:
            got = shortest_route(g, source)
            want = oracle_shortest_path(g, source)
            if want is None:
                assert got is None, trial
            else:
                assert got is not None and got.hops == want, trial


def test_dominance_self_consistency():
    """Tables scored against the graph they were computed from are never invalid."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_graph(rng, quantized=False)
        for source in g.nodes[1:]:
            route = shortest_route(g, source)
            if route is not None:
                assert score_route(route, g)


def test_score_route_cases():
    g = graph_from_edges({(0, "rsu"): 80.0, (0, 1): 70.0, (1, "rsu"): 70.0})
    direct = Route(NodeId.vehicle(0), (NodeId.vehicle(0), RSU), 0)
    assert score_route(direct, g)
    assert not score_route(None, g)

    relay = Route(NodeId.vehicle(0), (NodeId.vehicle(0), NodeId.vehicle(1), RSU), 0)
    assert score_route(relay, g)
    # relay despawned: node 1 no longer in the graph
    without_relay = graph_from_edges({(0, "rsu"): 80.0})
    assert not score_route(relay, without_relay)
    # middle link newly blocked: edge 0-1 removed, nodes still present
    broken_mid = graph_from_edges({(0, "rsu"): 80.0, (1, "rsu"): 70.0})
    assert not score_route(relay, broken_mid)


def test_route_invariants_enforced():
    with pytest.raises(ValueError):
        Route(NodeId.vehicle(0), (NodeId.vehicle(1), RSU), 0)  # wrong start
    with pytest.raises(ValueError):
        Route(NodeId.vehicle(0), (NodeId.vehicle(0), NodeId.vehicle(1)), 0)  # no RSU end
    with pytest.raises(ValueError):
        Route(
            NodeId.vehicle(0),
            (NodeId.vehicle(0), NodeId.vehicle(1), NodeId.vehicle(0), RSU),
            0,
        )  # repeated node


def test_route_realtime_single_vehicle_in_range():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)])
    table = route_realtime(snap, {NodeId.vehicle(0)}, PARAMS, 110.0)
    assert table.assignments[NodeId.vehicle(0)].hops == (NodeId.vehicle(0), RSU)


def test_route_realtime_rejects_foreign_demands():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)])
    with pytest.raises(ValueError):
        route_realtime(snap, {NodeId.vehicle(5)}, PARAMS, 110.0)


def test_stale_snapshot_route_breaks_on_current_truth():
    """Route computed before a truck crossed the sight line scores as broken."""
    sedan = make_vehicle(0, 50.0, 0.0, heading=math.pi)
    before = make_snapshot([sedan, make_vehicle(1, 30.0, 40.0, connected=False, body=TRUCK)], timestep=0)
    after = make_snapshot([sedan, make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK)], timestep=10)

    table = route_realtime(before, {NodeId.vehicle(0)}, PARAMS, 110.0)
    route = table.assignments[NodeId.vehicle(0)]
    assert route is not None  # clear sight line a second ago

    truth_now = build_topology(after, PARAMS, 110.0)
    assert not score_route(route, truth_now)


def frozen_history(vehicles, n=3, dt=0.1):
    return [
        make_snapshot(vehicles, timestep=k, sim_time=k * dt) for k in range(n)
    ]


def test_predictive_static_world_equals_realtime():
    vehicles = [
        make_vehicle(0, 30.0, 0.0, speed=0.0),
        make_vehicle(1, 60.0, 5.0, speed=0.0),
        make_vehicle(2, 40.0, -20.0, speed=0.0, connected=False, body=TRUCK),
    ]
    history = frozen_history(vehicles)
    now = history[-1].timestep
    plan = route_predictive(
        history, now, horizon=1.0, interval=0.5, predictor=ConstantVelocityPredictor(),
        dt=0.1, params=PARAMS, budget_db=110.0,
    )
    assert len(plan.entries) == 10
    current = route_realtime(history[-1], {NodeId.vehicle(0), NodeId.vehicle(1)}, PARAMS, 110.0)
    for ts, table in plan.entries:
        assert {
            v: (r.hops if r else None) for v, r in table.assignments.items()
        } == {v: (r.hops if r else None) for v, r in current.assignments.items()}, ts


class GroundTruthPredictor:
    """Test double: reads the scripted future instead of extrapolating."""

    kind = "oracle"
    min_history = 1

    def __init__(self, future_by_vehicle):
        self.future = future_by_vehicle

    def extrapolate(self, history, steps, dt):
        vid = history[-1].id
        return [
            (s.position, s.heading, s.speed) for s in self.future[vid][:steps]
        ]


def test_predictive_with_perfect_oracle_matches_future_realtime():
    dt = 0.1
    moving = []
    for k in range(20):
        moving.append(
            [
                make_vehicle(0, 30.0 + k, 0.0, speed=10.0),
                make_vehicle(1, -50.0 + 2 * k, 5.0, speed=20.0),
            ]
        )
    snapshots = [make_snapshot(v, timestep=k, sim_time=k * dt) for k, v in enumerate(moving)]
    future = {
        NodeId.vehicle(0): [snapshots[k].vehicles[0] for k in range(1, 20)],
        NodeId.vehicle(1): [snapshots[k].vehicles[1] for k in range(1, 20)],
    }
    plan = route_predictive(
        snapshots[:1], 0, horizon=1.0, interval=1.0,
        predictor=GroundTruthPredictor(future), dt=dt, params=PARAMS, budget_db=110.0,
    )
    for ts, table in plan.entries:
        truth = route_realtime(
            snapshots[ts], {NodeId.vehicle(0), NodeId.vehicle(1)}, PARAMS, 110.0
        )
        got = {v: (r.hops if r else None) for v, r in table.assignments.items()}
        want = {v: (r.hops if r else None) for v, r in truth.assignments.items()}
        assert got == want, ts


def test_predictive_fallback_on_failing_predictor():
    class Exploding:
        kind = "broken"
        min_history = 1

        def extrapolate(self, history, steps, dt):
            raise RuntimeError("no model")

    history = frozen_history([make_vehicle(0, 30.0, 0.0)])
    plan = route_predictive(
        history, 2, horizon=0.5, interval=0.5, predictor=Exploding(),
        dt=0.1, params=PARAMS, budget_db=110.0,
    )
    assert plan.degraded_tracks == 1
    # hold fallback keeps the vehicle where it was, so routing still works
    assert plan.entries[0][1].assignments[NodeId.vehicle(0)] is not None


def test_dump_route_table_format():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)], timestep=4)
    g = build_topology(snap, PARAMS, 110.0)
    table = route_realtime(snap, {NodeId.vehicle(0)}, PARAMS, 110.0, graph=g)
    buf = io.StringIO()
    dump_route_table(table, g, 4, buf)
    assert buf.getvalue() == "4,v0,v0>rsu,1\n"
