from __future__ import annotations

import copy
import dataclasses
import io
import math
import pickle
import random

import numpy as np
import pytest

from twinroute.config import default_config
from twinroute.engine import run_variants
from twinroute.model import Fleet, NodeId, VehicleState, WorldSnapshot

from conftest import SEDAN, snapshot_columns
from oracles import node_key


# -- NodeId: an int coded (index << 1) | is_vehicle --------------------------


def test_hash_and_int_are_the_identity_code():
    # hash values fix set iteration order, so they must not drift
    rsu = NodeId.rsu()
    assert hash(rsu) == int(rsu) == 0
    for k in range(1001):
        node = NodeId.vehicle(k)
        assert hash(node) == int(node) == (k << 1) | 1


def test_sorted_order_is_sort_key_order():
    rng = random.Random(3)
    for _ in range(50):
        ids = [NodeId.vehicle(rng.randrange(200)) for _ in range(rng.randrange(1, 30))]
        if rng.random() < 0.5:
            ids.append(NodeId.rsu())
        rng.shuffle(ids)
        assert sorted(ids) == sorted(ids, key=node_key)
    assert NodeId.rsu() < NodeId.vehicle(0) < NodeId.vehicle(1)
    assert node_key(NodeId.rsu()) == (0, 0)
    assert node_key(NodeId.vehicle(7)) == (1, 7)


def test_never_equals_a_plain_int():
    node = NodeId.vehicle(3)
    assert int(node) == 7
    assert node != 7 and 7 != node
    assert not (node == 7) and not (7 == node)
    assert node != (1, 3)
    assert 7 not in {node: True} and node not in {7: True}
    assert {7: "int"}.get(node) is None and {node: "id"}.get(7) is None
    assert NodeId.rsu() != 0 and 0 != NodeId.rsu()


def test_equal_ids_from_separate_calls():
    assert NodeId.vehicle(5) == NodeId.vehicle(5)
    assert not (NodeId.vehicle(5) != NodeId.vehicle(5))
    assert NodeId.vehicle(5) != NodeId.vehicle(6)
    assert not (NodeId.vehicle(5) == NodeId.vehicle(6))
    assert NodeId.rsu() != NodeId.vehicle(0) and not (NodeId.rsu() == NodeId.vehicle(0))
    assert {NodeId.vehicle(5): 1}[NodeId.vehicle(5)] == 1


def test_index():
    assert NodeId.rsu().index == 0
    node = NodeId.vehicle(12)
    assert node.index == 12
    assert type(node.index) is int


def test_every_id_is_truthy():
    assert NodeId.rsu()
    assert bool(NodeId.vehicle(0))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_keeps_type_and_value(protocol):
    for node in (NodeId.rsu(), NodeId.vehicle(0), NodeId.vehicle(41), NodeId.vehicle(2**62 - 1)):
        back = pickle.loads(pickle.dumps(node, protocol))
        assert type(back) is NodeId and back == node and int(back) == int(node)


def test_copies_keep_type_and_value():
    for node in (NodeId.rsu(), NodeId.vehicle(9), NodeId.vehicle(2**62 - 1)):
        for dup in (copy.copy(node), copy.deepcopy(node)):
            assert type(dup) is NodeId and dup == node and int(dup) == int(node)


def test_text_forms():
    rsu, v7 = NodeId.rsu(), NodeId.vehicle(7)
    assert str(rsu) == "rsu" and str(v7) == "v7"
    assert f"{rsu}->{v7}" == "rsu->v7"
    assert format(v7) == "v7" and format(rsu, "") == "rsu"
    with pytest.raises(TypeError):
        format(v7, "d")  # the int code never leaks into text
    assert repr(v7) == "NodeId.vehicle(7)"
    assert repr(rsu) == "NodeId.rsu()"
    for node in (rsu, v7, NodeId.vehicle(2**62 - 1)):
        back = eval(repr(node))
        assert type(back) is NodeId and back == node


def test_negative_vehicle_index_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        NodeId.vehicle(-1)


def test_vehicle_index_whose_code_overflows_int64_rejected():
    top = NodeId.vehicle(2**62 - 1)
    assert int(top) == np.iinfo(np.int64).max
    with pytest.raises(ValueError, match=r"below 2\*\*62, got 4611686018427387904"):
        NodeId.vehicle(2**62)


@pytest.mark.parametrize("code", [2, 4, -1, -3, -4, 2**63, 2**63 + 1, 2**64])
def test_a_code_that_names_no_node_is_rejected(code):
    with pytest.raises(ValueError, match=f"node code {code} names no node"):
        NodeId(code)


def test_a_node_code_makes_its_node():
    assert NodeId(0) == NodeId.rsu()
    assert NodeId(7) == NodeId.vehicle(3)
    assert NodeId(2**63 - 1) == NodeId.vehicle(2**62 - 1)
    assert NodeId(NodeId.rsu()) == NodeId.rsu()
    assert NodeId(NodeId.vehicle(5)) == NodeId.vehicle(5)


def test_ids_are_immutable():
    with pytest.raises(AttributeError):
        NodeId.vehicle(1).index = 2


# -- checks that read the kind from the code -----------------------------------


def test_vehicle_state_needs_a_vehicle_id():
    VehicleState(NodeId.vehicle(0), (0.0, 0.0, 0.0), 0.0, 1.0, connected=True, **SEDAN)
    for bad in (NodeId.rsu(), 1):
        with pytest.raises(ValueError, match="vehicle node"):
            VehicleState(bad, (0.0, 0.0, 0.0), 0.0, 1.0, connected=True, **SEDAN)


# -- WorldSnapshot: read-only columns, states built on demand -------------------


FLEET_COLUMNS = ("ids", "bodies", "antenna_height", "connected")


def two_rows(**changes):
    """The columns of two sedans, with ``changes`` applied: a snapshot's
    constructor arguments, with its fleet's in place of ``fleet``."""
    columns = dict(
        timestep=3,
        rsu_position=(0.0, 0.0, 5.0),
        ids=(NodeId.vehicle(1), NodeId.vehicle(2)),
        xy_yaw=np.array([[10.0, 1.0, 0.0], [20.0, -1.0, 3.0]]),
        speed=np.array([5.0, 0.0]),
        bodies=np.array([[4.5, 1.8, 1.5], [4.5, 1.8, 1.5]]),
        antenna_height=np.array([1.6, 1.6]),
        connected=np.array([True, False]),
    )
    columns.update(changes)
    return columns


def two_sedans(**changes) -> WorldSnapshot:
    """The snapshot of ``two_rows(**changes)``, on a new fleet."""
    columns = two_rows(**changes)
    fleet = Fleet(*(columns.pop(name) for name in FLEET_COLUMNS))
    return WorldSnapshot(fleet=fleet, **columns)


def test_columns_read_back_as_the_states_they_hold():
    snap = two_sedans()
    assert snap.vehicles == (
        VehicleState(NodeId.vehicle(1), (10.0, 1.0, 0.0), 0.0, 5.0, connected=True, **SEDAN),
        VehicleState(NodeId.vehicle(2), (20.0, -1.0, 0.0), 3.0, 0.0, connected=False, **SEDAN),
    )
    assert snap.vehicles is snap.vehicles  # built once
    assert snap == WorldSnapshot.from_vehicles(3, snap.vehicles, (0.0, 0.0, 5.0))
    assert snap != WorldSnapshot.from_vehicles(4, snap.vehicles, (0.0, 0.0, 5.0))
    assert hash(snap) == hash(WorldSnapshot.from_vehicles(3, snap.vehicles, (0.0, 0.0, 5.0)))


# the pose components, each a column of xy_yaw
POSE = dict(x=0, y=1, heading=2)


def with_entry(snap, name, row, value):
    """The ``two_rows`` change that sets ``name`` of ``row`` to ``value``;
    ``name`` is a pose component or a column (of bodies, the last entry)."""
    column = "xy_yaw" if name in POSE else name
    values = snapshot_columns(snap)[column].copy()
    if name in POSE:
        values[row, POSE[name]] = value
    else:
        values.reshape(len(values), -1)[row, -1] = value
    return {column: values}


# a valid new value for the first row of each pose component and column
CHANGED = dict(
    x=11.0, y=0.5, heading=0.25, speed=4.0, bodies=5.0, antenna_height=1.5, connected=False
)


@pytest.mark.parametrize("name", CHANGED)
def test_one_changed_value_in_any_column_makes_a_different_snapshot(name):
    snap = two_sedans()
    changes = with_entry(snap, name, 0, CHANGED[name])
    changed = two_sedans(**changes)
    assert changed != snap and not changed == snap
    copied = {column: values.copy() for column, values in changes.items()}
    assert changed == two_sedans(**copied)


def test_copies_are_equal_and_their_columns_read_only():
    snap = two_sedans()
    for copied in (copy.copy(snap), copy.deepcopy(snap), pickle.loads(pickle.dumps(snap))):
        assert copied == snap and hash(copied) == hash(snap)
        for name, column in snapshot_columns(copied).items():
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(xy_yaw=np.array([[10.0, 1.0, 0.0]])), "snapshot columns must hold one row per id"),
        (dict(bodies=np.ones((2, 2))), "snapshot columns must hold one row per id"),
        (dict(ids=(NodeId.vehicle(1),) * 2), "duplicate vehicle ids"),
        (dict(ids=(NodeId.vehicle(1), 5)), "vehicle node"),
        (dict(ids=(NodeId.vehicle(1), NodeId.rsu())), "vehicle node"),
        (dict(speed=np.array([5.0, -0.5])), r"speed must be >= 0, got -0.5"),
        (dict(bodies=np.array([[4.5, 1.8, 1.5], [4.5, 0.0, 1.5]])), "dimensions must be positive"),
        (dict(antenna_height=np.array([1.6, 2.6])), r"antenna_height 2.6 outside \(0, height \+ 1\]"),
        (dict(antenna_height=np.array([0.0, 1.6])), r"antenna_height 0.0 outside"),
        (dict(xy_yaw=np.ones((2, 2))), "snapshot columns must hold one row per id"),
    ],
)
def test_columns_are_checked_as_states_are(changes, message):
    with pytest.raises(ValueError, match=message):
        two_sedans(**changes)


def test_a_snapshot_of_states_keeps_them_on_the_ground():
    lifted = VehicleState(NodeId.vehicle(1), (10.0, 1.0, 0.5), 0.0, 5.0, connected=True, **SEDAN)
    with pytest.raises(ValueError, match="position z = 0"):
        WorldSnapshot.from_vehicles(0, (lifted,), (0.0, 0.0, 5.0))


# a non-finite value for each pose component's and column's second row
# (for bodies, its height), and the VehicleState field that holds it
NON_FINITE = [
    ("x", math.nan, "position", (math.nan, -1.0, 0.0)),
    ("y", -math.inf, "position", (20.0, -math.inf, 0.0)),
    ("heading", math.inf, "heading", math.inf),
    ("speed", math.inf, "speed", math.inf),
    ("bodies", math.inf, "dimensions", (4.5, 1.8, math.inf)),
    ("antenna_height", math.nan, "antenna_height", math.nan),
]


@pytest.mark.parametrize("entry, value, name, field_value", NON_FINITE)
def test_a_non_finite_value_is_rejected_naming_its_field(entry, value, name, field_value):
    snap = two_sedans()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        two_sedans(**with_entry(snap, entry, 1, value))
    # a state, which from_vehicles packs, is checked on its own
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(snap.vehicle(1), **{name: field_value})


def test_a_run_stops_at_a_non_finite_snapshot_before_scoring_it():
    cfg = default_config(duration=1.0, vehicle_count=2)
    both = np.array([True, True])

    def stream():
        for ts in range(3):
            yield two_sedans(timestep=ts, connected=both)
        poses = np.array([[10.0, 1.0, 0.0], [math.nan, -1.0, 3.0]])
        yield two_sedans(timestep=3, connected=both, xy_yaw=poses)

    topology = io.StringIO()
    with pytest.raises(ValueError, match=r"position must be finite, got \(nan, -1.0, 0.0\)"):
        run_variants({"run": cfg}, stream(), topology_dump=topology)
    scored = {row.split(",")[0] for row in topology.getvalue().splitlines()[1:]}
    assert scored == {"1", "2"}


# -- Fleet: a vehicle set's ids, bodies, antennas and mask, checked once --------


def test_a_fleet_derives_its_rows_once_and_is_equal_by_value():
    ids = (NodeId.vehicle(5), NodeId.vehicle(2), NodeId.vehicle(3))
    columns = dict(
        bodies=np.array([[4.5, 1.8, 1.5]] * 3),
        antenna_height=np.array([1.6, 1.6, 1.6]),
        connected=np.array([True, True, False]),
    )
    fleet = Fleet(ids, **columns)
    assert fleet.row == {ids[0]: 0, ids[1]: 1, ids[2]: 2}
    assert fleet.node_rows.tolist() == [1, 0]  # the connected rows, in id order
    assert fleet.codes.tolist() == [11, 5, 7]
    for name in ("row", "node_rows", "codes"):
        assert getattr(fleet, name) is getattr(fleet, name), name  # computed once
    for derived in (fleet.node_rows, fleet.codes):
        assert not derived.flags.writeable
    twin = Fleet(ids, **{name: column.copy() for name, column in columns.items()})
    assert twin is not fleet and twin == fleet and hash(twin) == hash(fleet)
    assert fleet != Fleet(ids, **dict(columns, connected=np.array([True, True, True])))
    assert fleet != Fleet(ids[::-1], **columns)
    for copied in (copy.deepcopy(fleet), pickle.loads(pickle.dumps(fleet))):
        assert copied == fleet
        columns = (copied.bodies, copied.antenna_height, copied.connected)
        assert not any(column.flags.writeable for column in columns)


def test_a_step_on_a_shared_fleet_checks_its_poses_and_speeds():
    """A snapshot on another snapshot's fleet shares it, and its own rows
    are checked with the messages a fleet of its own gives."""
    snap = two_sedans()
    bad = [
        ("x", math.nan, r"position must be finite, got \(nan, -1.0, 0.0\)"),
        ("speed", -0.5, r"speed must be >= 0, got -0.5"),
    ]
    for entry, value, message in bad:
        columns = dict(xy_yaw=snap.xy_yaw, speed=snap.speed)
        columns.update(with_entry(snap, entry, 1, value))
        with pytest.raises(ValueError, match=message):
            WorldSnapshot(4, snap.rsu_position, snap.fleet, **columns)
    with pytest.raises(ValueError, match="snapshot columns must hold one row per id"):
        WorldSnapshot(4, snap.rsu_position, snap.fleet, snap.xy_yaw[:1], snap.speed[:1])
    moved = WorldSnapshot(4, snap.rsu_position, snap.fleet, snap.xy_yaw + 1.0, snap.speed)
    assert moved.fleet is snap.fleet and moved.vehicle(1).position == (21.0, 0.0, 0.0)


def test_a_row_with_a_bad_body_and_a_bad_pose_names_the_body():
    """The fleet is checked before the step, so its error comes first."""
    with pytest.raises(ValueError, match=r"antenna_height 2.6 outside"):
        two_sedans(
            xy_yaw=np.array([[10.0, 1.0, 0.0], [math.nan, -1.0, 3.0]]),
            antenna_height=np.array([1.6, 2.6]),
        )
