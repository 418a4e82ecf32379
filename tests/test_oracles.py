"""The oracles have contracts of their own; pin them down."""

from __future__ import annotations

import pytest

from twinroute.model import NodeId

from conftest import graph_from_losses
from oracles import (
    ObstacleBox,
    OracleCase,
    oracle_min_surface_distance,
    oracle_occlusion,
    oracle_shortest_path,
    segment_intersects_box,
)

RSU = NodeId.rsu()


def test_two_node_graph_single_edge():
    g = graph_from_losses({(0, "rsu"): 80.0})
    assert oracle_shortest_path(g, NodeId.vehicle(0)) == (NodeId.vehicle(0), RSU)


def test_disconnected_pair_absent():
    g = graph_from_losses({(0, 1): 80.0})
    assert oracle_shortest_path(g, NodeId.vehicle(0)) is None


def test_oracle_refuses_large_graphs():
    g = graph_from_losses({(0, "rsu"): 80.0}, range(8))  # 9 nodes incl. RSU
    with pytest.raises(ValueError):
        oracle_shortest_path(g, NodeId.vehicle(0))


def test_sampling_oracle_mirrors_hand_geometry():
    center, half = (0.0, 0.0, 0.75), (2.25, 0.9, 0.75)
    assert not oracle_occlusion((-10, 0, 1.6), (10, 0, 1.6), center, half, 0.0)
    assert oracle_occlusion((-10, 0, 1.0), (10, 0, 1.0), center, half, 0.0)
    assert not oracle_occlusion((-10, 0, 1.0), (10, 0, 1.0), (100.0, 100.0, 0.75), half, 0.0)


def test_sampling_oracle_finds_narrow_grazing_cut():
    # 45-degree clip through the footprint corner: the inside interval is
    # ~1e-6 of the segment, far between coarse samples, but the cut is
    # 5e-5 m deep so only the refinement passes can find it
    center, half = (0.0, 0.0, 0.75), (2.25, 0.9, 0.75)
    e = 5e-5
    a = (2.25 - e - 50.0, 0.9 - e + 50.0, 1.4999)
    b = (2.25 - e + 50.0, 0.9 - e - 50.0, 1.4999)
    assert oracle_occlusion(a, b, center, half, 0.0)
    box = ObstacleBox(center, half, 0.0, NodeId.vehicle(0))
    assert segment_intersects_box(a, b, box)


def test_surface_distance_measures_the_gap():
    center, half = (0.0, 0.0, 0.75), (2.25, 0.9, 0.75)
    gap = oracle_min_surface_distance((-10, 0, 1.6), (10, 0, 1.6), center, half, 0.0)
    assert gap == pytest.approx(0.1, abs=1e-6)


# frozen derived expectations, each reproducible by re-running its oracle
DERIVED_CASES = [
    OracleCase(
        "antenna line clears a sedan roof",
        "oracle_occlusion",
        ((-10, 0, 1.6), (10, 0, 1.6), (0.0, 0.0, 0.75), (2.25, 0.9, 0.75), 0.0),
        False,
    ),
    OracleCase(
        "cabin-height line is cut",
        "oracle_occlusion",
        ((-10, 0, 1.0), (10, 0, 1.0), (0.0, 0.0, 0.75), (2.25, 0.9, 0.75), 0.0),
        True,
    ),
    OracleCase(
        "100 m LOS attenuation",
        "oracle_path_loss",
        (100.0, 0, ((0, 2.0, 68.0), (None, 2.0, 84.0)), 15.0),
        109.5,
    ),
    OracleCase(
        "100 m with one body in the way",
        "oracle_path_loss",
        (100.0, 1, ((0, 2.0, 68.0), (None, 2.0, 84.0)), 15.0),
        125.5,
    ),
    OracleCase(
        "pooled reliability of (3/5, 4/5, 5/5)",
        "oracle_reliability",
        ([(3, 5), (4, 5), (5, 5)],),
        0.8,
    ),
    OracleCase(
        "pooled reliability of (1/1, 0/10)",
        "oracle_reliability",
        ([(1, 1), (0, 10)],),
        1 / 11,
    ),
]


@pytest.mark.parametrize("case", DERIVED_CASES, ids=lambda c: c.oracle)
def test_frozen_cases_reproduce_from_their_oracles(case):
    import oracles

    fn = getattr(oracles, case.oracle)
    assert fn(*case.inputs) == case.expected, case.description
