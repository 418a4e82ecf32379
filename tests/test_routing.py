from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute.channel import default_channel_params
from twinroute.config import default_config
from twinroute.mobility import snapshot_stream
from twinroute.model import NodeId, VehicleState, WorldSnapshot
from twinroute.prediction import ConstantTurnRatePredictor, ConstantVelocityPredictor, HoldPredictor
from twinroute.routing import (
    _hop_layers,
    dump_route_table,
    route_predictive,
    route_realtime,
    score_route,
)
from twinroute.topology import ConnectivityGraph, build_topology

from conftest import TRUCK, count_validations, graph_from_losses, links, make_snapshot, make_vehicle
from oracles import (
    node_key,
    oracle_dijkstra_route,
    oracle_hop_layers,
    oracle_score_route,
    oracle_shortest_path,
)

PARAMS = default_channel_params()
RSU = NodeId.rsu()


def random_graph(rng, quantized: bool) -> ConnectivityGraph:
    n_vehicles = int(rng.integers(1, 8))
    nodes = [RSU] + [NodeId.vehicle(i) for i in range(n_vehicles)]
    p_edge = float(rng.uniform(0.15, 0.8))
    losses = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < p_edge:
                if quantized:
                    loss = float(rng.choice([80.0, 95.0, 110.0]))
                else:
                    loss = float(rng.uniform(60.0, 160.0))
                losses[(nodes[i], nodes[j])] = loss
    return graph_from_losses(losses, range(n_vehicles))


def route_of(g, source, max_hops=None):
    """The route ``route_realtime`` gives ``source``."""
    return route_realtime(g, max_hops)[NodeId.vehicle(source)]


def hops_table(g, max_hops=None):
    """Every vehicle node's route, None where unreachable, in node order."""
    table = route_realtime(g, max_hops)
    assert list(table) == list(g.nodes[1:])
    return table


def test_direct_edge_is_the_route():
    g = graph_from_losses({(0, "rsu"): 100.0, (0, 1): 60.0, (1, "rsu"): 60.0})
    route = route_of(g, 0)
    assert route == (NodeId.vehicle(0), RSU)


def test_unreachable_returns_none():
    g = graph_from_losses({(0, 1): 80.0})
    assert route_of(g, 0) is None


def test_two_hop_beats_lossier_nothing():
    g = graph_from_losses({(0, 1): 80.0, (1, "rsu"): 80.0})
    route = route_of(g, 0)
    assert route == (NodeId.vehicle(0), NodeId.vehicle(1), RSU)


def test_loss_breaks_hop_ties():
    g = graph_from_losses(
        {(0, 1): 80.0, (1, "rsu"): 80.0, (0, 2): 70.0, (2, "rsu"): 80.0}
    )
    route = route_of(g, 0)
    assert route == (NodeId.vehicle(0), NodeId.vehicle(2), RSU)


def test_node_order_breaks_exact_ties():
    g = graph_from_losses(
        {(0, 1): 80.0, (1, "rsu"): 80.0, (0, 2): 80.0, (2, "rsu"): 80.0}
    )
    route = route_of(g, 0)
    assert route == (NodeId.vehicle(0), NodeId.vehicle(1), RSU)


def test_max_hops_cap():
    g = graph_from_losses({(0, 1): 80.0, (1, "rsu"): 80.0})
    assert route_of(g, 0, max_hops=1) is None
    assert route_of(g, 0, max_hops=2) is not None


def test_a_direct_link_wins_even_with_a_zero_hop_cap():
    # validation rejects max_hops 0 in a config; a direct call still routes
    # a one-hop vehicle straight to the RSU, and caps every other at one hop
    g = graph_from_losses({(0, "rsu"): 80.0, (0, 1): 80.0})
    table = hops_table(g, max_hops=0)
    assert table == {NodeId.vehicle(0): (NodeId.vehicle(0), RSU), NodeId.vehicle(1): None}


def test_matches_enumeration_oracle(fuzz_scale):
    """Seeded random graphs <= 8 nodes against exhaustive enumeration.

    Half the graphs draw weights from a tiny quantized set so exact-tie
    lexicographic ordering is actually exercised.
    """
    rng = np.random.default_rng(900)
    n = 150 * fuzz_scale
    for trial in range(n):
        g = random_graph(rng, quantized=trial % 2 == 0)
        want = {source: oracle_shortest_path(g, source) for source in g.nodes[1:]}
        assert hops_table(g) == want, trial


def test_neighbors_ascend_and_match_edges():
    rng = np.random.default_rng(77)
    for trial in range(100):
        g = random_graph(rng, quantized=trial % 2 == 0)
        for node, got in zip(g.nodes, g.adjacency):
            keys = [node_key(g.nodes[k]) for k in got]
            assert keys == sorted(keys), trial
            want = {
                g.index[b if a == node else a]: link.path_loss_db
                for (a, b), link in links(g).items()
                if node in (a, b)
            }
            assert got == want, trial


def test_node_order_breaks_exact_ties_past_the_first_layer():
    # v3 is reached first through v1 but settles through v2, so the
    # tied labels at v5 arrive in an order that is not node order
    g = graph_from_losses(
        {
            (0, 1): 10.0, (0, 2): 10.0,
            (1, 3): 20.0, (2, 3): 10.0, (1, 4): 10.0,
            (3, 5): 10.0, (4, 5): 10.0, (5, "rsu"): 10.0,
        }
    )
    route = route_of(g, 0)
    assert route == tuple(NodeId.vehicle(k) for k in (0, 1, 4, 5)) + (RSU,)
    assert oracle_dijkstra_route(g, NodeId.vehicle(0)) == route


# (0.1 + 0.2) + 0.3 > 0.6 == (0.3 + 0.2) + 0.1: summed source-first, the
# path v0>v3>v4>rsu is cheaper than v0>v1>v2>rsu, which wins the node-order
# tie-break and would also win were the losses summed RSU-first
SOURCE_FIRST_TIE = {
    (0, 1): 0.1, (1, 2): 0.2, (2, "rsu"): 0.3,
    (0, 3): 0.3, (3, 4): 0.2, (4, "rsu"): 0.1,
}


def test_loss_is_summed_source_first():
    assert (0.1 + 0.2) + 0.3 > (0.3 + 0.2) + 0.1
    g = graph_from_losses(SOURCE_FIRST_TIE)
    route = route_of(g, 0)
    assert route == tuple(NodeId.vehicle(k) for k in (0, 3, 4)) + (RSU,)
    assert oracle_shortest_path(g, NodeId.vehicle(0)) == route


# losses that tie exactly, or tie up to the order they are summed in
TIE_LOSSES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 80.0, 95.0])


@st.composite
def small_graphs(draw):
    """The RSU plus 1-7 vehicles, each pair linked or not."""
    nodes = [RSU] + [NodeId.vehicle(k) for k in range(draw(st.integers(1, 7)))]
    losses = TIE_LOSSES | st.floats(60.0, 160.0)
    links = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if draw(st.booleans()):
                links[(a, b)] = draw(losses)
    return graph_from_losses(links, range(len(nodes) - 1))


@settings(max_examples=300, deadline=None)
@given(g=small_graphs(), max_hops=st.none() | st.integers(1, 4))
@example(g=graph_from_losses(SOURCE_FIRST_TIE), max_hops=None)
@example(g=graph_from_losses(SOURCE_FIRST_TIE), max_hops=3)
@example(g=graph_from_losses(SOURCE_FIRST_TIE), max_hops=2)
def test_route_realtime_matches_oracles(g, max_hops):
    losses = {f"{a}-{b}": link.path_loss_db for (a, b), link in links(g).items()}
    got = hops_table(g, max_hops)
    vehicles = g.nodes[1:]
    assert got == {s: oracle_shortest_path(g, s, max_hops) for s in vehicles}, losses
    assert got == {s: oracle_dijkstra_route(g, s, max_hops) for s in vehicles}, losses


@st.composite
def sparse_links(draw, n_vehicles):
    """Links among the RSU and ``n_vehicles`` vehicles: a chain out from the
    RSU through some of them, which sets deep layers unless a shortcut
    cuts it, plus a few random links. Vehicles off both stay unreachable,
    and an empty chain leaves the RSU with no neighbours unless a random
    link reaches it."""
    order = draw(st.permutations(range(n_vehicles)))
    chain = ["rsu", *order[: draw(st.integers(0, n_vehicles))]]
    links = {(a, b): draw(TIE_LOSSES) for a, b in zip(chain, chain[1:])}
    ends = st.sampled_from(["rsu", *range(n_vehicles)])
    for a, b in draw(st.lists(st.tuples(ends, ends), max_size=n_vehicles)):
        if a != b:
            links[(a, b)] = draw(TIE_LOSSES)
    return links


@st.composite
def sparse_graphs(draw):
    n_vehicles = draw(st.integers(1, 12))
    return graph_from_losses(draw(sparse_links(n_vehicles)), range(n_vehicles))


# depth 5 down a chain whose last node has two ways one layer closer,
# with a two-node island beside it
DEEP_CHAIN = {("rsu", 0): 90.0, (0, 1): 80.0, (1, 2): 80.0, (2, 3): 80.0, (3, 4): 80.0,
              (4, 5): 80.0, (2, 4): 95.0, (3, 5): 70.0, (6, 7): 80.0}
# the RSU has no neighbours
LONE_RSU = {(0, 1): 80.0, (1, 2): 95.0}


def test_hop_layer_examples_cover_deep_and_unreachable_nodes():
    depth, down = oracle_hop_layers(graph_from_losses(DEEP_CHAIN).adjacency)
    assert depth == [0, 1, 2, 3, 4, 4, 5, None, None]
    assert down[6] == [(4, 70.0), (5, 80.0)]
    depth, _ = oracle_hop_layers(graph_from_losses(LONE_RSU).adjacency)
    assert depth == [0, None, None, None]


@settings(max_examples=300, deadline=None)
@given(g=sparse_graphs())
@example(g=graph_from_losses(DEEP_CHAIN))
@example(g=graph_from_losses(LONE_RSU))
@example(g=graph_from_losses(SOURCE_FIRST_TIE))
def test_hop_layers_equal_a_plain_bfs(g):
    assert _hop_layers(g) == oracle_hop_layers(g.adjacency)


def test_route_all_matches_heap_dijkstra_on_dense_run():
    """Every step of a 60-vehicle, 2-lane run, cycling the hop cap per step."""
    cfg = default_config(duration=20.0, vehicle_count=60, connected_fraction=1.0, seed=2)
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=2)
    )
    caps = (None, 2, 3)
    routed = 0
    for snap in snapshot_stream(cfg):
        g = build_topology(snap, cfg.channel, cfg.link_budget_db)
        max_hops = caps[snap.timestep % len(caps)]
        table = route_realtime(g, max_hops)
        assert list(table) == list(g.nodes[1:])
        for vehicle, route in table.items():
            assert route == oracle_dijkstra_route(g, vehicle, max_hops), snap.timestep
            routed += route is not None and len(route) > 2
    assert routed > 1000  # multi-hop routes were exercised


def test_dominance_self_consistency():
    """Tables scored against the graph they were computed from are never invalid."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_graph(rng, quantized=False)
        for route in route_realtime(g).values():
            if route is not None:
                assert score_route(route, g)


def test_score_route_cases():
    g = graph_from_losses({(0, "rsu"): 80.0, (0, 1): 70.0, (1, "rsu"): 70.0})
    direct = (NodeId.vehicle(0), RSU)
    assert score_route(direct, g)
    assert not score_route(None, g)

    relay = (NodeId.vehicle(0), NodeId.vehicle(1), RSU)
    assert score_route(relay, g)
    # relay despawned: node 1 no longer in the graph
    without_relay = graph_from_losses({(0, "rsu"): 80.0})
    assert not score_route(relay, without_relay)
    # middle link newly blocked: edge 0-1 removed, nodes still present
    broken_mid = graph_from_losses({(0, "rsu"): 80.0, (1, "rsu"): 70.0})
    assert not score_route(relay, broken_mid)


def route_via(*relays: int) -> tuple[NodeId, ...]:
    return (*map(NodeId.vehicle, relays), RSU)


# vehicle 0 reaches the RSU directly and through vehicle 1; vehicle 2 has no links
RELAYED = graph_from_losses({(0, "rsu"): 80.0, (0, 1): 70.0, (1, "rsu"): 70.0}, [2])


@st.composite
def routes(draw):
    """None, or a route through up to five of vehicles 0-9; a graph of
    ``small_graphs`` has vehicles 0-6 at most, so some hops are absent."""
    if draw(st.integers(0, 9)) == 0:
        return None
    return route_via(*draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)))


@settings(max_examples=500, deadline=None)
@given(g=small_graphs(), route=routes())
@example(g=RELAYED, route=None)
@example(g=RELAYED, route=route_via(0))  # direct to the RSU
@example(g=RELAYED, route=route_via(0, 1))
@example(g=RELAYED, route=route_via(0, 9))  # a hop absent from the graph
@example(g=RELAYED, route=route_via(9, 0))  # an absent source
@example(g=RELAYED, route=route_via(0, 2, 1))  # a broken middle hop
@example(g=RELAYED, route=route_via(2))
def test_score_route_matches_the_list_formulation(g, route):
    assert score_route(route, g) == oracle_score_route(route, g)


def test_route_realtime_single_vehicle_in_range():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)])
    table = route_realtime(build_topology(snap, PARAMS, 110.0))
    assert table[NodeId.vehicle(0)] == (NodeId.vehicle(0), RSU)


def test_stale_snapshot_route_breaks_on_current_truth():
    """Route computed before a truck crossed the sight line scores as broken."""
    sedan = make_vehicle(0, 50.0, 0.0, heading=math.pi)
    before = make_snapshot([sedan, make_vehicle(1, 30.0, 40.0, connected=False, body=TRUCK)], timestep=0)
    after = make_snapshot([sedan, make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK)], timestep=10)

    table = route_realtime(build_topology(before, PARAMS, 110.0))
    route = table[NodeId.vehicle(0)]
    assert route is not None  # clear sight line a second ago

    truth_now = build_topology(after, PARAMS, 110.0)
    assert not score_route(route, truth_now)


def frozen_history(vehicles, n=3):
    return [make_snapshot(vehicles, timestep=k) for k in range(n)]


def test_predictive_static_world_equals_realtime():
    vehicles = [
        make_vehicle(0, 30.0, 0.0, speed=0.0),
        make_vehicle(1, 60.0, 5.0, speed=0.0),
        make_vehicle(2, 40.0, -20.0, speed=0.0, connected=False, body=TRUCK),
    ]
    history = frozen_history(vehicles)
    now = history[-1].timestep
    plan = route_predictive(
        history, now, steps=10, predictor=ConstantVelocityPredictor(),
        dt=0.1, params=PARAMS, budget_db=110.0,
    )
    assert list(plan.entries) == list(plan.forecast) == list(range(now + 1, now + 11))
    current = route_realtime(build_topology(history[-1], PARAMS, 110.0))
    assert list(current) == [NodeId.vehicle(0), NodeId.vehicle(1)]
    for ts, table in plan.entries.items():
        assert table == current, ts


class GroundTruthPredictor:
    """Test double: reads the scripted future instead of extrapolating."""

    kind = "oracle"
    min_history = 1

    def __init__(self, future_by_vehicle):
        self.future = future_by_vehicle

    def extrapolate(self, history, steps, dt):
        vid = history[-1].id
        return [(*s.position[:2], s.heading) for s in self.future[vid][:steps]]


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
    snapshots = [make_snapshot(v, timestep=k) for k, v in enumerate(moving)]
    future = {
        NodeId.vehicle(0): [snapshots[k].vehicles[0] for k in range(1, 20)],
        NodeId.vehicle(1): [snapshots[k].vehicles[1] for k in range(1, 20)],
    }
    plan = route_predictive(
        snapshots[:1], 0, steps=10,
        predictor=GroundTruthPredictor(future), dt=dt, params=PARAMS, budget_db=110.0,
    )
    for ts, table in plan.entries.items():
        assert plan.ids == snapshots[ts].fleet.ids
        want = [[*v.position[:2], v.heading] for v in snapshots[ts].vehicles]
        assert plan.forecast[ts].tolist() == want
        truth = route_realtime(build_topology(snapshots[ts], PARAMS, 110.0))
        assert list(truth) == [NodeId.vehicle(0), NodeId.vehicle(1)]
        assert table == truth, ts


def test_predictive_fallback_on_failing_predictor():
    class Exploding:
        kind = "broken"
        min_history = 1

        def extrapolate(self, history, steps, dt):
            raise RuntimeError("no model")

    history = frozen_history([make_vehicle(0, 30.0, 0.0)])
    plan = route_predictive(
        history, 2, steps=5, predictor=Exploding(),
        dt=0.1, params=PARAMS, budget_db=110.0,
    )
    assert plan.degraded_tracks == 1
    # hold fallback keeps the vehicle where it was, so routing still works
    assert plan.entries[3][NodeId.vehicle(0)] is not None


def test_predictive_plans_at_least_one_step():
    history = frozen_history([make_vehicle(0, 30.0, 0.0)])
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        route_predictive(
            history, 2, steps=0, predictor=ConstantVelocityPredictor(),
            dt=0.1, params=PARAMS, budget_db=110.0,
        )


@pytest.mark.parametrize(
    "depth, now, message",
    [(0, 2, "history must contain at least one snapshot"), (3, 1, "history extends past the planning time")],
)
def test_predictive_needs_a_history_that_ends_by_now(depth, now, message):
    history = frozen_history([make_vehicle(0, 30.0, 0.0)], n=depth)
    with pytest.raises(ValueError, match=message):
        route_predictive(
            history, now, steps=1, predictor=ConstantVelocityPredictor(),
            dt=0.1, params=PARAMS, budget_db=110.0,
        )


def plan_counting(monkeypatch, classes, predictor):
    """One 20-step epoch of a 30-vehicle mixed run, its 11-snapshot
    history, and every object of ``classes`` validated while planning it,
    as (class name, object)."""
    cfg = default_config(duration=5.0, vehicle_count=30, connected_fraction=0.5, seed=1)
    history = list(snapshot_stream(cfg))[-11:]
    assert len(history[-1].fleet.ids) > 10
    built = count_validations(monkeypatch, classes)
    plan = route_predictive(
        history, history[-1].timestep + 2, steps=20,
        predictor=predictor, dt=cfg.dt, params=cfg.channel,
        budget_db=cfg.link_budget_db,
    )
    assert len(plan.entries) == len(plan.forecast) == 20
    return plan, history, built


@pytest.mark.parametrize(
    "predictor, depth",
    [(HoldPredictor(), 1), (ConstantVelocityPredictor(), 1), (ConstantTurnRatePredictor(), 2)],
    ids=lambda p: getattr(p, "kind", p),
)
def test_a_predictive_epoch_builds_only_the_vehicle_states_it_reads(monkeypatch, predictor, depth):
    """A forecast is per-step poses of the last observed vehicles: planning
    an epoch wraps no step in a WorldSnapshot, and builds a VehicleState
    only for each of the newest ``depth`` states of a vehicle's history
    that its predictor reads, not for the whole window."""
    _, history, built = plan_counting(monkeypatch, (VehicleState, WorldSnapshot), predictor)
    tracks = history[-1].fleet.ids
    observed = [sum(vid in snap.fleet.ids for snap in history) for vid in tracks]
    assert max(observed) == len(history)
    assert [name for name, _ in built] == ["VehicleState"] * sum(min(n, depth) for n in observed)
    assert len(built) <= len(tracks) * depth
    make_vehicle(0, 30.0, 0.0)  # the patched checks still count
    assert built[-1][0] == "VehicleState"


def test_dump_route_table_format():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)], timestep=4)
    g = build_topology(snap, PARAMS, 110.0)
    table = route_realtime(g)
    buf = io.StringIO()
    dump_route_table(table, g, 4, buf)
    assert buf.getvalue() == "4,v0,v0>rsu,1\n"
