from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute.channel import (
    BlockageClass, ChannelParams, _class_table, default_channel_params, link_radius, path_loss,
)
from twinroute.model import NodeId

from conftest import SHORT_LINK_CHANNEL, TRUCK, links, make_snapshot, make_vehicle
from oracles import oracle_topology_edges, snapshot_graph

RSU, V0, V1 = NodeId.rsu(), NodeId.vehicle(0), NodeId.vehicle(1)


def rsu_link(x, budget_db, blocker_x=None, rsu_height=1.6):
    """The RSU-v0 link of a sedan at (x, 0), with an unconnected truck at
    (blocker_x, 0) if given; None if the link is infeasible. The RSU
    antenna is level with the sedan's by default."""
    vehicles = [make_vehicle(0, x, 0.0)]
    if blocker_x is not None:
        vehicles.append(make_vehicle(1, blocker_x, 0.0, connected=False, body=TRUCK))
    snap = make_snapshot(vehicles, rsu_height=rsu_height)
    return links(snapshot_graph(snap, default_channel_params(), budget_db)).get((RSU, V0))


def test_loss_at_one_meter_is_gamma_plus_atmosphere():
    assert path_loss(1.0, 0, default_channel_params()) == pytest.approx(68.015, abs=1e-12)


def test_loss_at_100m_los():
    # 10*2*log10(100) + 68 + 15*100/1000 = 40 + 68 + 1.5
    assert path_loss(100.0, 0, default_channel_params()) == pytest.approx(109.5, abs=1e-9)


def test_loss_at_100m_one_blocker():
    # per-blocker default adds 16 dB to the constant term
    assert path_loss(100.0, 1, default_channel_params()) == pytest.approx(125.5, abs=1e-9)


def test_default_gamma_matches_free_space_loss_at_60ghz():
    # sanity anchor for the default constant: Friis at 1 m, 60 GHz
    friis = 20.0 * math.log10(4.0 * math.pi * 1.0 * 60e9 / 299_792_458.0)
    assert abs(default_channel_params().classes[0].gamma - friis) < 0.05


def test_zero_or_negative_distance_rejected():
    with pytest.raises(ValueError):
        path_loss(0.0, 0, default_channel_params())
    with pytest.raises(ValueError):
        path_loss(-5.0, 0, default_channel_params())


def test_negative_blocker_count_rejected():
    with pytest.raises(ValueError, match="blocker count must be >= 0, got -1"):
        path_loss(10.0, -1, default_channel_params())


def test_class_selection_first_match():
    # at 1 m the log term vanishes: the class's gamma plus 15 dB/km * 1 m
    params = default_channel_params()
    for blockers, gamma in [(0, 68.0), (1, 84.0), (2, 100.0), (3, 116.0), (50, 116.0)]:
        assert path_loss(1.0, blockers, params) == gamma + 0.015, blockers


def test_loss_strictly_monotone_in_distance(fuzz_scale):
    @settings(max_examples=200 * fuzz_scale, deadline=None)
    @given(
        d1=st.floats(min_value=1.0, max_value=149.0),
        d2=st.floats(min_value=1.0, max_value=149.0),
        blockers=st.integers(min_value=0, max_value=5),
    )
    # neighbouring floats can round to one loss: never decreasing, and strictly
    # increasing once the distances differ by more than the loss's rounding
    @example(d1=1.0, d2=1.0000000000000002, blockers=0)
    @example(d1=149.0, d2=148.99999999999997, blockers=0)
    def check(d1, d2, blockers):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        params = default_channel_params()
        loss_lo, loss_hi = path_loss(lo, blockers, params), path_loss(hi, blockers, params)
        assert loss_lo <= loss_hi
        if hi > lo * (1 + 1e-12):
            assert loss_lo < loss_hi

    check()


def test_more_blockers_never_cheaper(fuzz_scale):
    @settings(max_examples=200 * fuzz_scale, deadline=None)
    @given(
        d=st.floats(min_value=1.0, max_value=150.0),
        k1=st.integers(min_value=0, max_value=6),
        k2=st.integers(min_value=0, max_value=6),
    )
    def check(d, k1, k2):
        params = default_channel_params()
        lo, hi = sorted((k1, k2))
        assert path_loss(d, lo, params) <= path_loss(d, hi, params)

    check()


def test_zero_budget_never_feasible():
    assert rsu_link(5.0, 0.0) is None
    assert rsu_link(5.0, 150.0).distance_m == 5.0


def test_blocker_flips_feasibility_at_110db():
    clear = rsu_link(100.0, 110.0)
    assert clear.blockers == 0 and clear.path_loss_db == pytest.approx(109.5)
    assert rsu_link(100.0, 110.0, blocker_x=50.0) is None
    blocked = rsu_link(100.0, 130.0, blocker_x=50.0)
    assert blocked.blockers == 1 and blocked.path_loss_db == pytest.approx(125.5)


def test_range_gate_applies_even_under_budget():
    assert rsu_link(151.0, 1e6) is None
    # 149.99 m on the ground, but 150.03 m from an RSU antenna 3.4 m higher
    assert rsu_link(149.99, 1e6, rsu_height=5.0) is None
    assert rsu_link(149.99, 1e6).distance_m == 149.99


def test_reciprocity():
    # the same two antennas with their ids swapped, so the v0-v1 segment
    # is evaluated from the other end; a truck body cuts it midway
    a, b = (12.0, -7.0), (-3.0, 44.0)
    truck = make_vehicle(2, 4.5, 18.5, heading=1.0, connected=False, body=TRUCK)
    snaps = [
        make_snapshot([make_vehicle(i, *a), make_vehicle(j, *b, body=TRUCK), truck])
        for i, j in ((0, 1), (1, 0))
    ]
    both = [links(snapshot_graph(s, default_channel_params(), 130.0))[(V0, V1)] for s in snaps]
    assert both[0] == both[1]
    assert both[0].blockers == 1


def test_class_table_structural_checks():
    assert default_channel_params().problems() == []
    assert ChannelParams(classes=()).problems()
    # last class bounded
    assert ChannelParams(classes=(BlockageClass(2, 2.0, 68.0),)).problems()
    # non-increasing bounds
    bad = ChannelParams(
        classes=(BlockageClass(2, 2.0, 68.0), BlockageClass(1, 2.0, 84.0), BlockageClass(None, 2.0, 99.0))
    )
    assert any("max_blockers" in path for path, _ in bad.problems())
    # attenuation decreasing across classes
    bad = ChannelParams(classes=(BlockageClass(0, 2.0, 90.0), BlockageClass(None, 2.0, 70.0)))
    assert any("non-decreasing" in msg for _, msg in bad.problems())
    # rho must be positive
    bad = ChannelParams(classes=(BlockageClass(None, 0.0, 68.0),))
    assert any("rho" in path for path, _ in bad.problems())


def test_path_loss_derives_its_class_table_once_per_parameter_set():
    params = default_channel_params()
    bounds, rho, gamma = _class_table(params)
    assert _class_table(params)[0] is bounds
    assert bounds.tolist() == [0, 1, 2] and rho.tolist() == [2.0] * 4
    assert gamma.tolist() == [68.0, 84.0, 100.0, 116.0]
    assert not (bounds.flags.writeable or rho.flags.writeable or gamma.flags.writeable)
    # a table given in ints computes the same losses as the same one in floats
    ints = ChannelParams(classes=(BlockageClass(0, 2, 68), BlockageClass(None, 2, 84)))
    floats = ChannelParams(classes=(BlockageClass(0, 2.0, 68.0), BlockageClass(None, 2.0, 84.0)))
    d, k = np.array([0.5, 1.0, 37.25]), np.array([0, 1, 5])
    assert path_loss(d, k, ints).tobytes() == path_loss(d, k, floats).tobytes()


def test_the_default_link_radius_is_where_class_0_closes():
    """With the default channel and a 110 dB budget no class closes a link
    longer than about 105.01 m, and class 0 still closes one a hair
    shorter: the radius is tight to 1e-7 of itself."""
    params = default_channel_params()
    radius = link_radius(params, 110.0)
    assert radius == pytest.approx(105.0124, abs=1e-4)
    assert path_loss(radius * (1 - 1e-7), 0, params) <= 110.0 < path_loss(radius, 0, params)
    assert link_radius(params, 1e6) == params.max_range_m


def test_the_link_radius_is_the_largest_over_every_class():
    params = SHORT_LINK_CHANNEL
    assert path_loss(0.05, 0, params) > 40.0 >= path_loss(0.17, 1, params)
    assert link_radius(params, 40.0) == pytest.approx(0.1778, abs=1e-4)


def test_a_link_only_a_blocker_makes_feasible_survives_the_cut():
    """The one feasible link of this scene is 0.1 m long and crossed by a
    truck: its one blocker selects the class with rho 4, whose loss fits
    40 dB there; the zero-blocker class's would not."""
    params = SHORT_LINK_CHANNEL
    vehicles = [
        make_vehicle(0, 50.0, 0.0),
        make_vehicle(1, 50.1, 0.0),
        make_vehicle(2, 50.05, 0.0, connected=False, body=TRUCK),
    ]
    snap = make_snapshot(vehicles)
    got = links(snapshot_graph(snap, params, 40.0))
    assert list(got) == [(NodeId.vehicle(0), NodeId.vehicle(1))]
    link = got[(NodeId.vehicle(0), NodeId.vehicle(1))]
    assert link.blockers == 1 and link.distance_m == pytest.approx(0.1)
    assert path_loss(link.distance_m, 0, params) > 40.0
    classes = [(c.max_blockers, c.rho, c.gamma) for c in params.classes]
    want = oracle_topology_edges(snap, classes, params.atmospheric_db_per_km, params.max_range_m, 40.0)
    assert want == {frozenset({"v0", "v1"}): 1}


def test_the_link_radius_falls_back_to_the_maximum_range_without_a_margin():
    flat = ChannelParams(classes=(BlockageClass(None, 1e-300, 110.0),), atmospheric_db_per_km=0.0)
    assert link_radius(flat, 110.0) == flat.max_range_m
    # losses near the float range, and a table that fails validation
    huge = ChannelParams(classes=(BlockageClass(None, 1e306, 68.0),))
    assert link_radius(huge, 110.0) == huge.max_range_m
    negative = ChannelParams(classes=(BlockageClass(None, 2.0, 68.0),), atmospheric_db_per_km=-1.0)
    assert link_radius(negative, 110.0) == negative.max_range_m
    # a class that never closes: the smallest radius, still above 0
    closed = ChannelParams(classes=(BlockageClass(None, 1e-3, 1e3),))
    assert 0.0 < link_radius(closed, 110.0) <= 1e-99


def magnitudes(low: int, high: int, zero: bool = False):
    """Floats spread across orders of magnitude: m * 10**e with m in [1,
    10) and e in [low, high], and 0 if ``zero``."""
    drawn = st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(low, high)
    )
    return (st.just(0.0) | drawn) if zero else drawn


@st.composite
def channels(draw) -> tuple[ChannelParams, float]:
    """A class table that validates, its range, and a budget > 0."""
    n = draw(st.integers(1, 4))
    rhos = sorted(draw(st.lists(magnitudes(-12, 4), min_size=n, max_size=n)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    sizes = draw(st.lists(magnitudes(-6, 4, zero=True), min_size=n, max_size=n))
    gammas = sorted(s * g for s, g in zip(signs, sizes))
    classes = tuple(
        BlockageClass(None if k == n - 1 else k, rho, gamma)
        for k, (rho, gamma) in enumerate(zip(rhos, gammas))
    )
    params = ChannelParams(
        classes=classes,
        atmospheric_db_per_km=draw(magnitudes(-6, 4, zero=True)),
        max_range_m=draw(magnitudes(-3, 6)),
    )
    assert params.problems() == []
    # half the budgets are the least class loss at a length within range,
    # which the radius then lies close to
    t = draw(st.floats(1e-6, 1.0)) * params.max_range_m
    budget = float(path_loss(np.full(n, t), np.arange(n), params).min())
    return params, budget if budget > 0 and draw(st.booleans()) else draw(magnitudes(-3, 5))


def test_no_class_closes_a_link_beyond_the_link_radius(fuzz_scale):
    """Across drawn class tables, ranges and budgets: 0 < R <= the maximum
    range, and path_loss, as the graph builder computes it, exceeds the
    budget for every class at every length in (R, max range] drawn, at
    the float just past R, and at the maximum range."""

    @settings(max_examples=300 * fuzz_scale, deadline=None)
    @given(channels(), st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20))
    @example((SHORT_LINK_CHANNEL, 40.0), [0.5])
    @example((default_channel_params(), 110.0), [1e-9, 0.5])
    def check(channel, fractions):
        params, budget = channel
        radius = link_radius(params, budget)
        max_range = params.max_range_m
        assert 0.0 < radius <= max_range
        if radius == max_range:
            return
        d = radius + np.array(fractions) * (max_range - radius)
        d = np.concatenate([[np.nextafter(radius, np.inf), max_range], d[d > radius]])
        for k in range(len(params.classes)):  # k blockers select class k
            assert (path_loss(d, np.full(len(d), k), params) > budget).all(), k

    check()
