from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute import engine, routing, topology
from twinroute.channel import default_channel_params
from twinroute.config import default_config
from twinroute.engine import run_single
from twinroute.mobility import snapshot_stream
from twinroute.model import NodeId, Strategy, VehicleState, WorldSnapshot
from twinroute.prediction import ConstantTurnRatePredictor, ConstantVelocityPredictor, HoldPredictor
from twinroute.routing import (
    _layers,
    dump_route_table,
    route_predictive,
    route_realtime,
    score_route,
)
from twinroute.topology import ConnectivityGraph, LinkRows, build_topologies, link_graphs

from conftest import TRUCK, count_validations, graph_from_losses, links, make_snapshot, make_vehicle
from oracles import (
    adjacency,
    node_key,
    oracle_dijkstra_route,
    oracle_hop_layers,
    oracle_score_route,
    oracle_shortest_path,
    snapshot_graph,
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
    """The rows the routing pass reads, the RSU's and those it misses,
    ascend in node order and hold exactly each node's links."""
    rng = np.random.default_rng(77)
    for trial in range(100):
        g = random_graph(rng, quantized=trial % 2 == 0)
        for n, got in [(0, g.rsu_row), *g.missed.items()]:
            node = g.nodes[n]
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


# routes whose loss sums tie exactly: v0 has two at depth 2; v5 has two
# at depth 3 through different depth-1 nodes, met in the order v9, v7, so
# the last hop must compare their paths; v10 has two at depth 3 that meet
# at v13 in the sweep
EXACT_TIES = {
    (0, 1): 1.0, (1, "rsu"): 2.0, (0, 2): 2.0, (2, "rsu"): 1.0,
    (5, 6): 1.0, (6, 9): 2.0, (9, "rsu"): 4.0, (5, 8): 2.0, (8, 7): 1.0, (7, "rsu"): 4.0,
    (10, 11): 1.0, (11, 13): 2.0, (10, 12): 2.0, (12, 13): 1.0, (13, "rsu"): 4.0,
}


def test_exact_loss_ties_fall_to_the_smaller_node_sequence():
    assert 1.0 + 2.0 == 2.0 + 1.0 and (1.0 + 2.0) + 4.0 == (2.0 + 1.0) + 4.0
    g = graph_from_losses(EXACT_TIES)
    table = hops_table(g)
    assert table[NodeId.vehicle(0)] == route_via(0, 1)
    assert table[NodeId.vehicle(5)] == route_via(5, 6, 9)
    assert table[NodeId.vehicle(10)] == route_via(10, 11, 13)
    assert table == {s: oracle_dijkstra_route(g, s) for s in g.nodes[1:]}


# losses that tie exactly, or tie up to the order they are summed in
TIE_LOSSES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 80.0, 95.0])


@st.composite
def small_links(draw, n_vehicles):
    """Links among the RSU and ``n_vehicles`` vehicles, each pair linked or not."""
    nodes = ["rsu", *range(n_vehicles)]
    losses = TIE_LOSSES | st.floats(60.0, 160.0)
    links = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if draw(st.booleans()):
                links[(a, b)] = draw(losses)
    return links


@st.composite
def small_graphs(draw):
    """The RSU plus 1-7 vehicles, each pair linked or not."""
    n_vehicles = draw(st.integers(1, 7))
    return graph_from_losses(draw(small_links(n_vehicles)), range(n_vehicles))


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
    depth, down = oracle_hop_layers(graph_from_losses(DEEP_CHAIN))
    assert depth == [0, 1, 2, 3, 4, 4, 5, None, None]
    assert down[6] == [(4, 70.0), (5, 80.0)]
    depth, _ = oracle_hop_layers(graph_from_losses(LONE_RSU))
    assert depth == [0, None, None, None]


def link_rows(graphs) -> LinkRows:
    """The graphs' edge rows as the link rows of one window, a step each."""
    return LinkRows(
        np.concatenate([np.full(len(g.edges), s, np.int64) for s, g in enumerate(graphs)]),
        np.concatenate([g.edges for g in graphs]).T,
        np.concatenate([g.edge_distance for g in graphs]),
        np.concatenate([g.edge_blockers for g in graphs]),
        np.concatenate([g.edge_loss for g in graphs]),
    )


@settings(max_examples=300, deadline=None)
@given(g=sparse_graphs())
@example(g=graph_from_losses(DEEP_CHAIN))
@example(g=graph_from_losses(LONE_RSU))
@example(g=graph_from_losses(SOURCE_FIRST_TIE))
def test_hop_layers_equal_a_plain_bfs(g):
    """The routing pass's layering, from a graph's rows, is a plain BFS's
    over the full adjacency: layer 1 is the RSU's row, which holds each
    depth-1 node's one down link."""
    want_depth, want_down = oracle_hop_layers(g)
    depth, down = _layers(g)
    assert depth == want_depth
    assert down == {v: want_down[v] for v, d in enumerate(depth) if d is not None and d > 1}
    assert all(want_down[v] == [(0, loss)] for v, loss in g.rsu_row.items())


@st.composite
def link_batches(draw):
    """One window's links over the RSU and 1-12 vehicles: 1-6 steps, each
    step's links drawn as ``small_graphs`` or ``sparse_graphs`` draw
    theirs, as (per-step links, vehicle count)."""
    n_vehicles = draw(st.integers(1, 12))
    steps = draw(st.lists(small_links(n_vehicles) | sparse_links(n_vehicles), min_size=1, max_size=6))
    return steps, n_vehicles


# a deep chain, a step where the RSU has no link, a step with no edges,
# and a loss tie that only summing source-first breaks, over one node set
MIXED_WINDOW = ([DEEP_CHAIN, LONE_RSU, {}, SOURCE_FIRST_TIE], 8)


@settings(max_examples=200, deadline=None)
@given(batch=link_batches(), max_hops=st.none() | st.integers(1, 4))
@example(batch=MIXED_WINDOW, max_hops=None)
@example(batch=MIXED_WINDOW, max_hops=1)
@example(batch=MIXED_WINDOW, max_hops=2)
@example(batch=MIXED_WINDOW, max_hops=4)
def test_a_window_of_link_rows_routes_as_its_graphs(batch, max_hops):
    """Each step's graph of one window's link rows routes as that step's
    graph built alone does, key order included, and as the heap Dijkstra
    route for route."""
    steps, n_vehicles = batch
    graphs = [graph_from_losses(links, range(n_vehicles)) for links in steps]
    nodes = graphs[0].nodes
    assert all(g.nodes == nodes for g in graphs)
    window = link_graphs(range(len(graphs)), nodes, graphs[0].index, link_rows(graphs))
    assert len(window) == len(graphs)
    for g, got in zip(graphs, window):
        table = route_realtime(got, max_hops)
        assert list(table.items()) == list(route_realtime(g, max_hops).items())
        assert table == {s: oracle_dijkstra_route(g, s, max_hops) for s in nodes[1:]}


@st.composite
def reach_batches(draw):
    """One window's links as ``link_batches`` draws them, each step's RSU
    row then cut to reach no vehicle, one vehicle or every vehicle, or
    left as drawn."""
    steps, n_vehicles = draw(link_batches())
    cut = []
    for links in steps:
        reach = draw(st.sampled_from(["none", "one", "every", "drawn"]))
        if reach != "drawn":
            links = {pair: loss for pair, loss in links.items() if "rsu" not in pair}
            reached = {"none": [], "one": [draw(st.integers(0, n_vehicles - 1))], "every": range(n_vehicles)}
            links.update({("rsu", v): draw(TIE_LOSSES) for v in reached[reach]})
        cut.append(links)
    return cut, n_vehicles


# 60 nodes, each vehicle linked to the next four, whose RSU row reaches no
# vehicle or one: the builder fills a row for almost every node
BAND_60 = {(v, w): 80.0 + (v + w) % 7 for v in range(59) for w in range(v + 1, min(v + 5, 59))}
BAND_WINDOWS = ([BAND_60], 59), ([{**BAND_60, ("rsu", 29): 90.0}], 59)


def test_link_graphs_cut_every_row_the_routing_pass_reads(fuzz_scale):
    """Per step of one window's link rows: the RSU's row and the row of
    every node it misses equal those cut from the full adjacency built
    from the step's ``edges``, key order included, and the window's graphs
    answer the edge test as membership in ``edges`` does, for every pair
    of node indices."""

    @settings(max_examples=300 * fuzz_scale, deadline=None)
    @given(batch=reach_batches())
    @example(batch=MIXED_WINDOW)
    @example(batch=BAND_WINDOWS[0])
    @example(batch=BAND_WINDOWS[1])
    def check(batch):
        steps, n_vehicles = batch
        graphs = [graph_from_losses(links, range(n_vehicles)) for links in steps]
        nodes = graphs[0].nodes
        window = link_graphs(range(len(graphs)), nodes, graphs[0].index, link_rows(graphs))
        for g, got in zip(graphs, window, strict=True):
            full = adjacency(g)
            assert list(got.rsu_row.items()) == list(full[0].items())
            assert list(got.missed) == [v for v in range(1, len(nodes)) if v not in full[0]]
            for v, row in got.missed.items():
                assert list(row.items()) == list(full[v].items())
            assert np.array_equal(got.edges, g.edges)
            edges = set(map(tuple, g.edges.tolist()))
            for a in range(len(nodes)):
                for b in range(len(nodes)):
                    assert got.linked(a, b) == ((min(a, b), max(a, b)) in edges), (a, b)

    check()


def test_route_all_matches_heap_dijkstra_on_dense_run():
    """Every step of a 60-vehicle, 2-lane run, cycling the hop cap per step."""
    cfg = default_config(duration=20.0, vehicle_count=60, connected_fraction=1.0, seed=2)
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=2)
    )
    caps = (None, 2, 3)
    routed = 0
    for snap in snapshot_stream(cfg):
        g = snapshot_graph(snap, cfg.channel, cfg.link_budget_db)
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
    table = route_realtime(snapshot_graph(snap, PARAMS, 110.0))
    assert table[NodeId.vehicle(0)] == (NodeId.vehicle(0), RSU)


def test_stale_snapshot_route_breaks_on_current_truth():
    """Route computed before a truck crossed the sight line scores as broken."""
    sedan = make_vehicle(0, 50.0, 0.0, heading=math.pi)
    before = make_snapshot([sedan, make_vehicle(1, 30.0, 40.0, connected=False, body=TRUCK)], timestep=0)
    after = make_snapshot([sedan, make_vehicle(1, 30.0, 0.0, connected=False, body=TRUCK)], timestep=10)

    table = route_realtime(snapshot_graph(before, PARAMS, 110.0))
    route = table[NodeId.vehicle(0)]
    assert route is not None  # clear sight line a second ago

    truth_now = snapshot_graph(after, PARAMS, 110.0)
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
    current = route_realtime(snapshot_graph(history[-1], PARAMS, 110.0))
    assert list(current) == [NodeId.vehicle(0), NodeId.vehicle(1)]
    for ts, table in plan.entries.items():
        assert table == current, ts


class GroundTruthPredictor:
    """Test double: reads the scripted future instead of extrapolating."""

    kind = "oracle"
    min_history = 1
    depth = 1

    def __init__(self, future_by_vehicle):
        self.future = future_by_vehicle

    def extrapolate(self, tracks, steps, dt):
        rows = [[(*s.position[:2], s.heading) for s in self.future[vid][:steps]] for vid in tracks.ids]
        return np.array(rows).transpose(1, 0, 2)


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
        truth = route_realtime(snapshot_graph(snapshots[ts], PARAMS, 110.0))
        assert list(truth) == [NodeId.vehicle(0), NodeId.vehicle(1)]
        assert table == truth, ts


def test_predictive_fallback_on_failing_predictor():
    class Exploding:
        kind = "broken"
        min_history = 1
        depth = 1

        def extrapolate(self, tracks, steps, dt):
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
    """A forecast is per-step poses of the last observed vehicles, and a
    predictor reads columns: planning an epoch wraps no step in a
    WorldSnapshot, builds no VehicleState, and makes one forecast call
    over only the newest ``depth`` rows of each track that its predictor
    reads, not the whole window, with every track's observed-row count."""
    calls = []
    real = routing.predict
    monkeypatch.setattr(routing, "predict", lambda tracks, *rest: calls.append(tracks) or real(tracks, *rest))
    _, history, built = plan_counting(monkeypatch, (VehicleState, WorldSnapshot), predictor)
    observed = [sum(vid in snap.fleet.ids for snap in history) for vid in history[-1].fleet.ids]
    assert max(observed) == len(history) > min(observed)  # one entered mid-window
    assert built == []
    (tracks,) = calls
    assert predictor.depth == depth and tracks.xy_yaw.shape == (depth, len(observed), 3)
    assert tracks.count.tolist() == observed
    make_vehicle(0, 30.0, 0.0)  # the patched checks still count
    assert built[-1][0] == "VehicleState"


def test_a_predictive_epoch_routes_one_build_of_its_applied_steps(monkeypatch):
    """A planning epoch makes one ``build_topologies`` call over the steps
    it applies, and each step's table is ``route_realtime`` of that step's
    graph; on this scene the graphs' routing rows hold fewer links than
    the feasible ones."""
    found = []
    real = routing.build_topologies

    def spy(last, timesteps, *args):
        found.append((list(timesteps), real(last, timesteps, *args)))
        return found[-1][1]

    monkeypatch.setattr(routing, "build_topologies", spy)
    plan, history, _ = plan_counting(monkeypatch, (), ConstantVelocityPredictor())
    assert any(route is not None for table in plan.entries.values() for route in table.values())
    ((timesteps, graphs),) = found
    assert timesteps == list(plan.entries) == [g.timestep for g in graphs]
    assert len(graphs) == 20
    held = feasible = 0
    for g in graphs:
        assert g.nodes == history[-1].fleet.nodes
        assert list(plan.entries[g.timestep].items()) == list(route_realtime(g).items())
        pairs = {(0, v) for v in g.rsu_row}
        pairs.update((min(u, v), max(u, v)) for v, row in g.missed.items() for u in row)
        held += len(pairs)
        feasible += len(g.edges)
    assert 0 < held < feasible


# (vehicles, connected fraction, lanes, route depths its tables must hold):
# the paper's mixed scene, with direct, relayed, capped-away and unreachable
# routes, and a dense one, with many more nodes beyond the RSU's row
FORECAST_SCENES = {"mixed30": (30, 0.5, 1, {0, 1, 2, 3}), "dense60": (60, 1.0, 2, {1, 2})}


@pytest.mark.parametrize(
    "predictor, scene",
    [
        pytest.param(predictor, scene, id=predictor if scene == "mixed30" else f"{predictor}-{scene}")
        for scene in FORECAST_SCENES
        for predictor in ("constant_velocity", "constant_turn_rate")
    ],
)
def test_every_forecast_table_equals_routing_its_built_graph(monkeypatch, fuzz_scale, predictor, scene):
    """Every planning epoch of a 20 s run with a 0.3 s latency and a
    two-hop cap (seed 1; seeds 1-4 under ``--extended``), in a 30-vehicle
    mixed scene and a 60-vehicle connected one on 2 lanes: each forecast
    step's table equals ``route_realtime`` of the graph that a one-step
    ``build_topologies`` call builds from that step's forecast poses, key
    order included."""
    epochs = []
    real = engine.route_predictive

    def kept(history, *args):
        plan = real(history, *args)
        epochs.append((history[-1], plan))
        return plan

    monkeypatch.setattr(engine, "route_predictive", kept)
    vehicles, fraction, lanes, want_depths = FORECAST_SCENES[scene]
    for seed in range(1, fuzz_scale + 1):
        cfg = default_config(
            duration=20.0, vehicle_count=vehicles, connected_fraction=fraction, seed=seed,
            strategy=Strategy.PREDICTIVE, latency_delta=0.3, max_hops=2,
        )
        run_single(dataclasses.replace(
            cfg,
            prediction=dataclasses.replace(cfg.prediction, predictor=predictor),
            intersection=dataclasses.replace(cfg.intersection, lane_count=lanes),
        ))
    assert len(epochs) == 10 * fuzz_scale
    depths = set()
    beyond = nodes = 0
    for last, plan in epochs:
        timesteps = list(plan.entries)
        assert timesteps == list(plan.forecast)
        for ts in timesteps:
            (g,) = build_topologies(last, [ts], plan.forecast[ts][None], cfg.channel, cfg.link_budget_db)
            want = route_realtime(g, 2)
            assert list(plan.entries[g.timestep].items()) == list(want.items()), g.timestep
            uncapped = route_realtime(g)
            depths.update(len(r) - 1 if r else 0 for r in uncapped.values())
            beyond += len(g.missed)
            nodes += len(g.nodes) - 1
    assert want_depths <= depths
    assert beyond > nodes // 10  # the RSU's row misses many nodes


def test_dump_route_table_format():
    snap = make_snapshot([make_vehicle(0, 30.0, 0.0)], timestep=4)
    g = snapshot_graph(snap, PARAMS, 110.0)
    table = route_realtime(g)
    buf = io.StringIO()
    dump_route_table(table, g, 4, buf)
    assert buf.getvalue() == "4,v0,v0>rsu,1\n"
