from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute.channel import BlockageClass, ChannelParams, default_channel_params, path_loss
from twinroute.model import NodeId
from twinroute.topology import build_topology

from conftest import TRUCK, links, make_snapshot, make_vehicle

RSU, V0, V1 = NodeId.rsu(), NodeId.vehicle(0), NodeId.vehicle(1)


def rsu_link(x, budget_db, blocker_x=None, rsu_height=1.6):
    """The RSU-v0 link of a sedan at (x, 0), with an unconnected truck at
    (blocker_x, 0) if given; None if the link is infeasible. The RSU
    antenna is level with the sedan's by default."""
    vehicles = [make_vehicle(0, x, 0.0)]
    if blocker_x is not None:
        vehicles.append(make_vehicle(1, blocker_x, 0.0, connected=False, body=TRUCK))
    snap = make_snapshot(vehicles, rsu_height=rsu_height)
    return links(build_topology(snap, default_channel_params(), budget_db)).get((RSU, V0))


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


def test_class_selection_first_match():
    # at 1 m the log term vanishes: the class's gamma plus 15 dB/km * 1 m
    params = default_channel_params()
    for blockers, gamma in [(0, 68.0), (1, 84.0), (2, 100.0), (3, 116.0), (50, 116.0)]:
        assert path_loss(1.0, blockers, params) == gamma + 0.015, blockers


@settings(max_examples=200, deadline=None)
@given(
    d1=st.floats(min_value=1.0, max_value=149.0),
    d2=st.floats(min_value=1.0, max_value=149.0),
    blockers=st.integers(min_value=0, max_value=5),
)
# neighbouring floats can round to one loss: never decreasing, and strictly
# increasing once the distances differ by more than the loss's rounding
@example(d1=1.0, d2=1.0000000000000002, blockers=0)
@example(d1=149.0, d2=148.99999999999997, blockers=0)
def test_loss_strictly_monotone_in_distance(d1, d2, blockers):
    if d1 == d2:
        return
    lo, hi = sorted((d1, d2))
    params = default_channel_params()
    loss_lo, loss_hi = path_loss(lo, blockers, params), path_loss(hi, blockers, params)
    assert loss_lo <= loss_hi
    if hi > lo * (1 + 1e-12):
        assert loss_lo < loss_hi


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(min_value=1.0, max_value=150.0),
    k1=st.integers(min_value=0, max_value=6),
    k2=st.integers(min_value=0, max_value=6),
)
def test_more_blockers_never_cheaper(d, k1, k2):
    params = default_channel_params()
    lo, hi = sorted((k1, k2))
    assert path_loss(d, lo, params) <= path_loss(d, hi, params)


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
    both = [links(build_topology(s, default_channel_params(), 130.0))[(V0, V1)] for s in snaps]
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
