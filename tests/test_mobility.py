from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute import mobility
from twinroute.config import default_config
from twinroute.mobility import (
    MANEUVER_WEIGHTS,
    Arm,
    Maneuver,
    TrafficState,
    Vehicle,
    _cdf,
    _poses,
    advance_traffic,
    build_route_plan,
    init_traffic,
    snapshot_stream,
)
from twinroute.model import NodeId, VehicleState, WorldSnapshot
from twinroute.trace import TraceError, read_trace, tee_trace

from conftest import snapshot_columns
from oracles import oracle_pose_at, oracle_stream, snapshot_graph

CFG = default_config(duration=60.0, vehicle_count=12, connected_fraction=0.5, seed=7)


def stream_digest(config) -> str:
    h = hashlib.sha256()
    for snap in snapshot_stream(config):
        for v in snap.vehicles:
            h.update(
                f"{snap.timestep},{v.id.index},{v.position[0]!r},{v.position[1]!r},"
                f"{v.heading!r},{v.speed!r},{int(v.connected)}\n".encode()
            )
    return h.hexdigest()


# -- spawning ---------------------------------------------------------------


def test_fully_connected_fraction():
    cfg = default_config(duration=20.0, vehicle_count=10, connected_fraction=1.0, seed=1)
    for snap in snapshot_stream(cfg):
        assert all(v.connected for v in snap.vehicles)


def test_fully_unconnected_fraction():
    cfg = default_config(duration=20.0, vehicle_count=10, connected_fraction=0.0, seed=1)
    for snap in snapshot_stream(cfg):
        assert all(not v.connected for v in snap.vehicles)


def test_population_never_exceeds_vehicle_count():
    seen_full = False
    for snap in snapshot_stream(CFG):
        assert len(snap.vehicles) <= CFG.vehicle_count
        seen_full |= len(snap.vehicles) == CFG.vehicle_count
    assert seen_full  # spawning actually fills the scene


def test_vehicle_indices_never_reused():
    state = init_traffic(CFG)
    seen: set[int] = set()
    alive_prev: set[int] = set()
    for _ in range(600):
        _, snap = advance_traffic(state, CFG.dt)
        alive = {v.id.index for v in snap.vehicles}
        fresh = alive - alive_prev
        assert not (fresh & seen), "index reused after despawn"
        seen |= alive
        alive_prev = alive
    assert max(seen) > CFG.vehicle_count  # turnover happened


def test_the_kth_released_vehicle_is_vehicle_k():
    """Ids go out in release order, counting from 0; a vehicle still
    pending has none."""
    state = init_traffic(CFG)
    released: list[NodeId] = []
    for _ in range(600):
        known = set(released)
        released += [v.id for v in state.active if v.id not in known]
        assert all(v.id is None for v in state.pending)
        advance_traffic(state, CFG.dt)
    assert len(released) > CFG.vehicle_count  # turnover happened
    assert released == [NodeId.vehicle(k) for k in range(len(released))]
    assert state.next_vehicle_index >= len(released)


def test_advance_rejects_another_step_length():
    cfg = default_config()
    state = init_traffic(cfg)
    with pytest.raises(ValueError, match=r"dt 0\.5 is not the configured step length 0\.1"):
        advance_traffic(state, 0.5)
    assert state.step == 0
    advance_traffic(state, cfg.dt)
    assert state.step == 1


def test_a_draw_builds_only_the_plan_it_drew(monkeypatch):
    """With 10 000 lanes, a run builds at most one route plan per drawn
    vehicle, not every plan of the geometry (12 per lane)."""
    draws = []
    real = mobility._draw
    monkeypatch.setattr(mobility, "_draw", lambda *args: draws.append(1) or real(*args))
    cfg = default_config(duration=20.0, vehicle_count=5, seed=3)
    cfg = dataclasses.replace(cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=10_000))
    before = build_route_plan.cache_info().currsize
    state = init_traffic(cfg)
    for _ in range(20):
        advance_traffic(state, cfg.dt)
    assert len(draws) >= 5
    assert build_route_plan.cache_info().currsize - before <= len(draws)


def test_a_deep_copy_steps_as_the_original():
    """A state copied mid-run and the original, stepped in turn, yield
    equal snapshots: they share nothing that stepping mutates."""
    state = init_traffic(CFG)
    for _ in range(150):
        advance_traffic(state, CFG.dt)
    twin = copy.deepcopy(state)
    assert twin.snapshot() == state.snapshot()
    for _ in range(50):
        _, ours = advance_traffic(state, CFG.dt)
        _, theirs = advance_traffic(twin, CFG.dt)
        assert theirs == ours
    assert twin.step == state.step == 200


# -- kinematics -------------------------------------------------------------


def make_state(*rows, min_gap=7.0):
    """A state whose rows are the ``(entry arm, maneuver, progress, cruise
    speed)`` vehicles, on lane 0 of the default geometry, admitted in turn
    and so vehicles 0, 1, ..."""
    cfg = default_config(vehicle_count=len(rows))
    cfg = dataclasses.replace(cfg, mobility=dataclasses.replace(cfg.mobility, min_gap=min_gap))
    geometry = cfg.intersection
    state = TrafficState(cfg, np.random.default_rng(0))
    for arm, maneuver, progress, speed in rows:
        plan = build_route_plan(
            arm, 0, maneuver, geometry.arm_length, geometry.lane_count, geometry.lane_width
        )
        state.admit(Vehicle(0.0, plan, cfg.vehicle_mix[0], speed, True))
        state.progress[-1] = progress
    return state


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(150, 300))  # past the ramp-up
def test_snapshot_columns_hold_the_keyword_built_states(seed, steps):
    """A traffic snapshot's vehicles equal the states built by keyword
    from each plan's pose, and the columns rebuilt from those states equal
    the snapshot's own."""
    cfg = dataclasses.replace(CFG, seed=seed)
    state = init_traffic(cfg)
    for _ in range(steps):
        advance_traffic(state, cfg.dt)
    assert state.active
    snap = state.snapshot()
    want = []
    for v, progress, speed in zip(state.active, state.progress, state.speed, strict=True):
        x, y, heading = oracle_pose_at(v.plan, progress)
        body = v.vclass
        want.append(
            VehicleState(
                id=v.id,
                position=(x, y, 0.0),
                heading=heading,
                speed=speed,
                dimensions=(body.length, body.width, body.height),
                antenna_height=body.antenna_height,
                connected=v.connected,
            )
        )
    assert snap.vehicles == tuple(want)
    assert all(type(f) is float for v in snap.vehicles for f in (*v.position, v.heading, v.speed))
    rebuilt = WorldSnapshot.from_vehicles(snap.timestep, want, snap.rsu_position)
    assert rebuilt == snap and rebuilt.fleet.ids == snap.fleet.ids
    for name, got in snapshot_columns(snap).items():
        built = snapshot_columns(rebuilt)[name]
        assert got.dtype == built.dtype and got.shape == built.shape, name
        assert np.array_equal(got, built), name
    # the row checks still run
    state.speed[-1] = -1.0
    with pytest.raises(ValueError, match="speed must be >= 0, got -1.0"):
        state.snapshot()


def test_snapshot_columns_and_fields_are_read_only():
    state = init_traffic(CFG)
    for _ in range(100):
        _, snap = advance_traffic(state, CFG.dt)
    built = WorldSnapshot.from_vehicles(snap.timestep, snap.vehicles, snap.rsu_position)
    for s in (snap, built):
        for name, column in snapshot_columns(s).items():
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.timestep = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.xy_yaw = np.zeros((len(s.fleet.ids), 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del s.fleet
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.fleet.ids = ()
    assert built == snap


def test_a_vehicle_set_shares_one_fleet_until_a_vehicle_enters_or_leaves():
    """Traffic hands the last snapshot's fleet object to the next while the
    active vehicles stay the same, and a new fleet, holding the vehicles
    then active, after a release or a despawn."""
    state = init_traffic(CFG)
    last = state.snapshot()
    shared = released = despawned = 0
    for _ in range(600):
        before = {v.id for v in state.active}
        _, snap = advance_traffic(state, CFG.dt)
        active = state.active
        after = {v.id for v in active}
        fleet = snap.fleet
        assert fleet.ids == tuple(v.id for v in active)
        assert fleet.bodies.tolist() == [
            [v.vclass.length, v.vclass.width, v.vclass.height] for v in active
        ]
        assert fleet.antenna_height.tolist() == [v.vclass.antenna_height for v in active]
        assert fleet.connected.tolist() == [v.connected for v in active]
        if after == before:
            assert fleet is last.fleet
            shared += 1
        else:
            assert fleet is not last.fleet
            released += bool(after - before)
            despawned += bool(before - after)
        last = snap
    assert shared > 500 and released > 10 and despawned > 10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 999),
    count=st.integers(1, 30),
    fraction=st.integers(1, 10),
    lanes=st.integers(1, 2),
)
def test_every_generated_snapshot_equals_the_one_packed_from_its_states(seed, count, fraction, lanes):
    """A generated snapshot, its fleet shared with the steps before it,
    equals the snapshot that packs its states into a new fleet."""
    cfg = default_config(
        seed=seed, duration=20.0, vehicle_count=count, connected_fraction=fraction / 10
    )
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=lanes)
    )
    for snap in snapshot_stream(cfg):
        packed = WorldSnapshot.from_vehicles(snap.timestep, snap.vehicles, snap.rsu_position)
        assert packed == snap and hash(packed) == hash(snap)


def test_free_vehicle_advances_speed_times_dt():
    state = make_state((Arm.N, Maneuver.STRAIGHT, 80.0, 10.0), (Arm.N, Maneuver.STRAIGHT, 10.0, 10.0))
    advance_traffic(state, 0.1)
    assert state.progress[1] == pytest.approx(11.0, abs=1e-12)


def test_a_vehicle_short_of_its_end_by_more_than_the_tolerance_stays():
    """Despawn forgives 1e-9 m: a lone vehicle left 5e-7 m short of its
    end after a step stays active for that step and despawns on the next."""
    state = make_state((Arm.N, Maneuver.STRAIGHT, 0.0, 10.0))
    lone = state.active[0]
    state.progress[0] = lone.plan.total_length - 5e-7 - 1.0
    _, snap = advance_traffic(state, 0.1)
    assert lone.plan.total_length - state.progress[0] == pytest.approx(5e-7, rel=1e-6)
    assert snap.fleet.ids == (lone.id,)
    _, snap = advance_traffic(state, 0.1)
    assert lone.id not in snap.fleet.ids and lone not in state.active


def test_a_vehicle_within_the_tolerance_of_its_end_despawns():
    state = make_state((Arm.N, Maneuver.STRAIGHT, 0.0, 10.0))
    total = state.plans[0].total_length
    state.progress[0] = total - 1.0 - 5e-10
    _, snap = advance_traffic(state, 0.1)
    assert 0.0 < total - (total - 1.0 - 5e-10 + 1.0) <= 1e-9
    assert snap.fleet.ids == (NodeId.vehicle(1),)  # its replacement, drawn due at once


def test_a_draw_due_within_the_tolerance_is_released():
    """A pending vehicle is due from ``release_time - 1e-9`` on: one due
    1e-9 s after a step's time enters at that step, one a float later
    waits for the next."""
    cfg = default_config(vehicle_count=2)
    due = 1 * cfg.dt + 1e-9
    later = math.nextafter(due, math.inf)
    plans = [build_route_plan(arm, 0, Maneuver.STRAIGHT, 100.0, 1, 3.5) for arm in (Arm.N, Arm.S)]
    pending = [Vehicle(t, plan, cfg.vehicle_mix[0], 10.0, True) for t, plan in zip((due, later), plans)]
    state = TrafficState(cfg, np.random.default_rng(0), pending=pending)
    advance_traffic(state, cfg.dt)
    assert [v.release_time for v in state.active] == [due]
    assert [v.release_time for v in state.pending] == [later]
    advance_traffic(state, cfg.dt)
    assert [v.release_time for v in state.active] == [due, later]


def test_follower_clamped_to_gap_boundary():
    # follower proposes past (leader - min_gap); it stops exactly there
    gap = CFG.mobility.min_gap
    state = make_state(
        (Arm.N, Maneuver.STRAIGHT, 50.0, 1.0), (Arm.N, Maneuver.STRAIGHT, 50.0 - gap - 0.5, 14.0)
    )
    advance_traffic(state, 0.1)
    leader_s = state.progress[0]
    assert leader_s == pytest.approx(50.1)
    assert state.progress[1] == pytest.approx(leader_s - gap)
    # effective speed reflects the clamp
    assert state.speed[1] < 14.0


@pytest.mark.parametrize("first", [Maneuver.STRAIGHT, Maneuver.RIGHT])
def test_a_tie_in_an_exit_corridor_goes_to_the_lower_id(first):
    """Two vehicles at the very start of the north exit lane, one from the
    south straight on, one from the east turning right: whichever is
    vehicle 0 leads, and vehicle 1 holds its place."""
    arm = {Maneuver.STRAIGHT: Arm.S, Maneuver.RIGHT: Arm.E}
    second = Maneuver.RIGHT if first is Maneuver.STRAIGHT else Maneuver.STRAIGHT
    state = make_state((arm[first], first, 0.0, 10.0), (arm[second], second, 0.0, 10.0))
    starts = [plan.exit_start_s for plan in state.plans]
    assert state.plans[0].exit_key == state.plans[1].exit_key
    state.progress[:] = starts
    advance_traffic(state, 0.1)
    assert state.progress == [starts[0] + 1.0, starts[1]]
    assert state.speed == [pytest.approx(10.0), 0.0]


def test_a_tie_in_an_entry_lane_goes_to_the_lower_id():
    state = make_state((Arm.N, Maneuver.LEFT, 20.0, 10.0), (Arm.N, Maneuver.STRAIGHT, 20.0, 14.0))
    advance_traffic(state, 0.1)
    assert state.progress == [21.0, 20.0]
    assert state.speed == [pytest.approx(10.0), 0.0]


def test_a_merge_chain_takes_the_third_clamp_pass():
    """A clamp that crosses from an exit corridor to an entry lane and
    back needs three passes. Vehicle 0 (east, turning left) holds back
    vehicle 1 (north, straight) where both merge onto the south exit;
    that holds back vehicle 2 (north, turning left) behind it in the north
    lane, which holds back vehicle 3 (west, straight) where both merge onto
    the east exit; and that, in the last pass, vehicle 4 behind it in the
    west lane. Every gap is at least 2 m before the step, and two passes
    would leave vehicle 4 1.34 m behind vehicle 3."""
    state = make_state(
        (Arm.E, Maneuver.LEFT, 99.0, 12.0),
        (Arm.N, Maneuver.STRAIGHT, 95.25, 8.0),
        (Arm.N, Maneuver.LEFT, 93.0, 12.0),
        (Arm.W, Maneuver.STRAIGHT, 88.5, 12.0),
        (Arm.W, Maneuver.STRAIGHT, 86.0, 14.0),
        min_gap=2.0,
    )
    advance_traffic(state, 0.1)
    s = state.progress
    exit_s = [p - plan.exit_start_s for p, plan in zip(s, state.plans)]
    assert s[0] == 100.2  # free
    assert exit_s[1] == pytest.approx(exit_s[0] - 2.0)
    assert s[2] == pytest.approx(s[1] - 2.0)
    assert exit_s[3] == pytest.approx(exit_s[2] - 2.0)
    assert s[4] == pytest.approx(s[3] - 2.0)


def test_progress_monotone_and_gap_safe():
    state = init_traffic(CFG)
    prev: dict[NodeId, float] = {}
    for _ in range(600):
        advance_traffic(state, CFG.dt)
        gap = CFG.mobility.min_gap
        by_entry: dict = {}
        by_exit: dict = {}
        for v, progress in zip(state.active, state.progress, strict=True):
            assert progress >= prev.get(v.id, 0.0) - 1e-12
            prev[v.id] = progress
            if progress < v.plan.entry_end_s:
                by_entry.setdefault((v.plan.entry_arm, v.plan.lane), []).append(progress)
            coord = progress - v.plan.exit_start_s
            if coord >= 0.0:
                by_exit.setdefault((v.plan.exit_arm, v.plan.lane), []).append(coord)
        for coords in list(by_entry.values()) + list(by_exit.values()):
            coords.sort()
            for a, b in zip(coords, coords[1:]):
                assert b - a >= gap - 1e-9


def test_heading_matches_polyline_direction():
    state = init_traffic(CFG)
    for _ in range(300):
        _, snap = advance_traffic(state, CFG.dt)
    for v, progress, vstate in zip(state.active, state.progress, snap.vehicles, strict=True):
        x, y, heading = oracle_pose_at(v.plan, progress)
        assert vstate.heading == heading
        assert vstate.position[:2] == (x, y)


# -- route plans ------------------------------------------------------------


@pytest.mark.parametrize("arm", list(Arm))
@pytest.mark.parametrize("maneuver", list(Maneuver))
def test_route_plan_geometry(arm, maneuver):
    plan = build_route_plan(arm, 0, maneuver, arm_length=100.0, lane_count=1, lane_width=3.5)
    # consecutive waypoints distinct
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        assert a != b
    # starts at the spawn radius on the entry arm, ends at the exit radius
    sx, sy = plan.waypoints[0]
    ex, ey = plan.waypoints[-1]
    assert math.hypot(sx, sy) == pytest.approx(math.hypot(100.0, 1.75), abs=1e-9)
    assert math.hypot(ex, ey) == pytest.approx(math.hypot(100.0, 1.75), abs=1e-9)
    expected_exit = {
        (Arm.N, Maneuver.STRAIGHT): Arm.S,
        (Arm.N, Maneuver.LEFT): Arm.E,
        (Arm.N, Maneuver.RIGHT): Arm.W,
        (Arm.E, Maneuver.STRAIGHT): Arm.W,
        (Arm.E, Maneuver.LEFT): Arm.S,
        (Arm.E, Maneuver.RIGHT): Arm.N,
        (Arm.S, Maneuver.STRAIGHT): Arm.N,
        (Arm.S, Maneuver.LEFT): Arm.W,
        (Arm.S, Maneuver.RIGHT): Arm.E,
        (Arm.W, Maneuver.STRAIGHT): Arm.E,
        (Arm.W, Maneuver.LEFT): Arm.N,
        (Arm.W, Maneuver.RIGHT): Arm.S,
    }[(arm, maneuver)]
    assert plan.exit_arm == expected_exit
    # the endpoint really lies on the exit arm
    axis = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}[expected_exit.value]
    assert ex * axis[0] + ey * axis[1] == pytest.approx(100.0)
    assert 0.0 < plan.entry_end_s < plan.exit_start_s < plan.total_length


@pytest.mark.parametrize("lane_count", [1, 2])
@pytest.mark.parametrize("maneuver", list(Maneuver))
@pytest.mark.parametrize("arm", list(Arm))
def test_pose_at_matches_numpy_oracle(arm, maneuver, lane_count):
    rng = random.Random(f"{arm.value}-{maneuver.value}-{lane_count}")
    for lane in range(lane_count):
        plan = build_route_plan(arm, lane, maneuver, 100.0, lane_count, 3.5)
        total = plan.total_length
        probes = [0.0, -1.0, total, total + 5.0]
        for s in plan.cum_lengths:
            probes += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
        probes += [rng.uniform(0.0, total) for _ in range(200)]
        for s in probes:
            assert _poses([plan], [s]) == list(oracle_pose_at(plan, s)), s


def test_turn_arc_chords_are_short():
    plan = build_route_plan(Arm.E, 0, Maneuver.LEFT, 100.0, 1, 3.5)
    arc = plan.waypoints[1:-1]
    for a, b in zip(arc, arc[1:]):
        assert math.dist(a, b) <= 1.0 + 1e-9


# -- determinism ------------------------------------------------------------


@pytest.mark.parametrize(
    "weights",
    [
        MANEUVER_WEIGHTS,
        tuple(v.weight for v in default_config().vehicle_mix),
        (0.6, 0.3, 0.1),
        (0.0, 3.0, 0.0, 1.0),
    ],
)
def test_a_draw_bisects_the_cdf_rng_choice_searches(weights):
    """``bisect_right(_cdf(weights), rng.random())`` draws the index that
    ``rng.choice`` draws with probabilities ``weights / sum``, from one
    double of the stream: generators of one seed agree on every draw and
    on the double after the last."""
    ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
    p = np.asarray(weights, dtype=float)
    p = p / p.sum()
    cdf = _cdf(weights)
    draws = 20_000
    assert [bisect_right(cdf, ours.random()) for _ in range(draws)] == [
        int(numpys.choice(len(weights), p=p)) for _ in range(draws)
    ]
    assert ours.random() == numpys.random()


def test_a_cdf_ends_at_one_as_numpys_does():
    """The probabilities of weights (1, 4, 1) sum to 0.9999999999999999;
    ``choice`` divides the CDF by its last entry, so a draw above that
    still lands on the last index."""
    p = np.asarray((1.0, 4.0, 1.0))
    assert (p / p.sum()).cumsum()[-1] < 1.0
    assert _cdf((1.0, 4.0, 1.0))[-1] == 1.0


def test_the_column_stepper_matches_the_per_vehicle_oracle(fuzz_scale):
    """Differential testing against the per-vehicle stepper the columns
    replaced: every snapshot, ids, bodies, flags, pose and speed bytes,
    equal over drawn seeds, counts, lanes, fractions, gaps and mixes."""

    @settings(max_examples=20 * fuzz_scale, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 60),
        lanes=st.integers(1, 3),
        fraction=st.integers(0, 10),
        gap=st.floats(0.5, 20.0),
        weights=st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any),
        seconds=st.integers(1, 60),
    )
    def check(seed, count, lanes, fraction, gap, weights, seconds):
        cfg = default_config(
            seed=seed, duration=float(seconds), vehicle_count=count, connected_fraction=fraction / 10
        )
        cfg = dataclasses.replace(
            cfg,
            intersection=dataclasses.replace(cfg.intersection, lane_count=lanes),
            mobility=dataclasses.replace(cfg.mobility, min_gap=gap),
            vehicle_mix=tuple(
                dataclasses.replace(v, weight=float(w)) for v, w in zip(cfg.vehicle_mix, weights)
            ),
        )
        for ours, theirs in zip(snapshot_stream(cfg), oracle_stream(cfg), strict=True):
            assert ours.timestep == theirs.timestep and ours.fleet.ids == theirs.fleet.ids
            for name, column in snapshot_columns(ours).items():
                want = snapshot_columns(theirs)[name]
                assert column.dtype == want.dtype and column.tobytes() == want.tobytes(), name

    check()


def test_same_seed_same_stream():
    a = list(snapshot_stream(CFG))
    b = list(snapshot_stream(CFG))
    assert a == b


def test_different_seed_different_stream():
    other = default_config(duration=60.0, vehicle_count=12, connected_fraction=0.5, seed=8)
    assert stream_digest(CFG) != stream_digest(other)


@pytest.mark.slow
def test_golden_digest_600s():
    """Frozen fingerprint of the full 600 s default stream.

    Recorded from the first verified implementation; any change to spawn
    draws, kinematics or the clamp rule shows up here.
    """
    cfg = default_config(duration=600.0, vehicle_count=30, connected_fraction=0.5, seed=1)
    assert (
        stream_digest(cfg)
        == "fa84d5da89215e95fc07a2d7838d0018076d7bb5777d8d4b07abb2ff875e0461"
    )


# -- traces -----------------------------------------------------------------


def test_trace_roundtrip():
    cfg = default_config(duration=5.0, vehicle_count=6, seed=3)
    snapshots = list(snapshot_stream(cfg))
    buf = io.StringIO()
    list(tee_trace(snapshots, buf, cfg.dt))
    buf.seek(0)
    restored = list(read_trace(buf, cfg))
    # vehicle-free steps come back from their marker rows
    assert not snapshots[0].vehicles
    assert len(restored) == len(snapshots)
    for orig, back in zip(snapshots, restored):
        assert len(back.vehicles) == len(orig.vehicles)
        assert back.timestep == orig.timestep
        for vo, vb in zip(orig.vehicles, back.vehicles):
            assert vb.id == vo.id
            assert vb.position == vo.position
            assert vb.heading == vo.heading
            assert vb.speed == vo.speed
            assert vb.connected == vo.connected
            assert vb.dimensions == vo.dimensions
            assert vb.antenna_height == vo.antenna_height
    # a van is in the stream, so the default sedan body would not do
    assert any(v.dimensions != (4.5, 1.8, 1.5) for s in restored for v in s.vehicles)


def test_a_trace_shares_one_fleet_across_steps_with_equal_ids():
    """``read_trace`` hands a step the last step's fleet when its ids are
    the same, and a new one when they differ; each snapshot equals the
    one the trace was written from."""
    cfg = default_config(duration=60.0, vehicle_count=12, connected_fraction=0.5, seed=7)
    snapshots = list(snapshot_stream(cfg))
    buf = io.StringIO()
    list(tee_trace(snapshots, buf, cfg.dt))
    buf.seek(0)
    restored = list(read_trace(buf, cfg))
    assert restored == snapshots
    shared = 0
    for a, b in zip(restored, restored[1:]):
        if a.fleet.ids == b.fleet.ids:
            assert b.fleet is a.fleet
            shared += 1
        else:
            assert b.fleet is not a.fleet
    assert 500 < shared < len(restored) - 10


FINITE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)
POSITIVE = st.sampled_from([5e-324, 1e300]) | st.floats(0.0, 1e300, exclude_min=True)


@st.composite
def trace_streams(draw):
    """Consecutive snapshots from any timestep, 0-4 vehicles each, with
    distinct ids and distinct (x, y) per step, and one body and
    ``connected`` flag per id. In about half the streams a vehicle that
    leaves may return, which the reader rejects."""
    start = draw(st.integers(0, 10**9))
    snapshots = []
    lifetimes = {}  # id -> (body, antenna, connected)
    returns = draw(st.booleans())
    previous: list[int] = []
    for ts in range(start, start + draw(st.integers(1, 5))):
        ids = draw(st.lists(st.integers(0, 20), max_size=4, unique=True))
        if not returns:
            ids = [k for k in ids if k in previous or k not in lifetimes]
        previous = ids
        spots = draw(st.lists(st.tuples(FINITE, FINITE), min_size=len(ids), max_size=len(ids), unique=True))
        vehicles = []
        for k, (x, y) in zip(ids, spots):
            if k not in lifetimes:
                body = (draw(POSITIVE), draw(POSITIVE), draw(POSITIVE))
                antenna = draw(st.floats(0.0, body[2] + 1.0, exclude_min=True))
                lifetimes[k] = (body, antenna, draw(st.booleans()))
            body, antenna, connected = lifetimes[k]
            heading, speed = draw(FINITE), draw(st.sampled_from([0.0, -0.0]) | POSITIVE)
            vehicles.append(
                VehicleState(NodeId.vehicle(k), (x, y, 0.0), heading, speed, body, antenna, connected)
            )
        snapshots.append(WorldSnapshot.from_vehicles(ts, vehicles, (0.0, 0.0, 5.0)))
    return snapshots


def read_to_the_end(lines, config):
    """The snapshots ``read_trace`` yields, and the TraceError it ends
    with (None if it ends cleanly)."""
    snapshots = []
    try:
        for snap in read_trace(lines, config):
            snapshots.append(snap)
    except TraceError as exc:
        return snapshots, exc
    return snapshots, None


def first_broken_row(snapshots, rsu=(0.0, 0.0, 5.0)):
    """(trace line, index of its snapshot, what its error says) of the
    first row of a vehicle that returns after a step without it, with |x|
    or |y| or a body column beyond 2**510 m, or whose antenna meets the
    RSU's point or, for a connected vehicle, an earlier connected antenna
    of its step, by the graph builder's sum of squares (which underflows
    to 0.0 for points within about 1e-154 m); None if no row does. A
    stream of distinct positions can break no other reader rule."""
    line = 1  # the header
    seen: set[NodeId] = set()
    previous: set[NodeId] = set()
    for k, snap in enumerate(snapshots):
        line += not snap.vehicles  # a marker row
        antennas = []
        for v in snap.vehicles:
            line += 1
            x, y, z = v.position[0], v.position[1], v.antenna_height
            if v.id in seen and v.id not in previous:
                return line, k, "and returns"
            if abs(x) > 2.0**510 or abs(y) > 2.0**510 or max(*v.dimensions, z) > 2.0**510:
                return line, k, "must be at most 2**510 m"
            for ax, ay, az, says in [(*rsu, "at the RSU's point")] + (antennas if v.connected else []):
                dx, dy, dz = x - ax, y - ay, z - az
                if dx * dx + dy * dy + dz * dz == 0.0:
                    return line, k, says
            if v.connected:
                antennas.append((x, y, z, "coincide"))
        previous = {v.id for v in snap.vehicles}
        seen |= previous
    return None


def trace_stream(*steps):
    """Snapshots from timestep 0 of ``(id, x, y, antenna_height, connected)``
    rows, each a 4.5 m body as tall as its antenna."""
    return [
        WorldSnapshot.from_vehicles(
            ts,
            tuple(
                VehicleState(NodeId.vehicle(k), (x, y, 0.0), 0.0, 0.0, (4.5, 1.8, z), z, c)
                for k, x, y, z, c in rows
            ),
            (0.0, 0.0, 5.0),
        )
        for ts, rows in enumerate(steps)
    ]


@settings(max_examples=300, deadline=None)
@given(trace_streams())
# two connected antennas whose 1e-323 m gap squares to 0.0
@example(trace_stream([(1, 0.0, 5e-324, 1.0, True), (2, 0.0, -5e-324, 1.0, True)]))
# an unconnected antenna 6.1e-195 m from the RSU's point
@example(trace_stream([(1, 0.0, 6.1e-195, 5.0, False)], [(2, 9.0, 9.0, 1.0, True)]))
# a coordinate whose square overflows
@example(trace_stream([(1, 9.0, 9.0, 1.0, True)], [(1, 1e300, 9.0, 1.0, True)]))
def test_trace_roundtrip_of_any_stream(snapshots):
    """A stream that breaks a reader rule ends in a TraceError naming the
    offending line, after the snapshots before its step; any other stream
    round-trips."""
    buf = io.StringIO()
    list(tee_trace(snapshots, buf, 0.1))
    buf.seek(0)
    back, end = read_to_the_end(buf, default_config())
    broken = first_broken_row(snapshots)
    if broken is not None:
        line, k, says = broken
        assert back == snapshots[:k]
        assert isinstance(end, TraceError) and str(end).startswith(f"trace line {line}: ")
        assert says in str(end)
        return
    assert back == snapshots
    # every snapshot is yielded before the end-of-input check
    if any(v.connected for snap in snapshots[1:] for v in snap.vehicles):
        assert end is None
    else:
        assert str(end).startswith(f"nothing to score: {len(snapshots)} snapshot(s),")
    ids: dict[int, NodeId] = {}
    for snap in back:
        for v in snap.vehicles:
            assert ids.setdefault(v.id.index, v.id) is v.id


def test_trace_rejects_malformed_rows():
    with pytest.raises(ValueError):
        cfg = default_config()
        list(read_trace(["1,2,3"], cfg))


TRACE_HEAD = "timestep,sim_time,id,connected,x,y,heading,speed\n"
GOOD_ROW = "0,0.0,4,1,0.0,2.0,0.0,5.0\n"
WIDE_HEAD = TRACE_HEAD.rstrip("\n") + ",length,width,height,antenna_height\n"
WIDE_ROW = "0,0.0,4,1,0.0,2.0,0.0,5.0,8.0,2.5,3.2,3.3\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,0.1,4,1,nan,2.0,0.0,5.0\n", "trace line 3: x must be finite, got nan"),
        ("1,0.1,4,1,1.0,-inf,0.0,5.0\n", "trace line 3: y must be finite"),
        ("1,0.1,4,1,1.0,2.0,nan,5.0\n", "trace line 3: heading must be finite"),
        ("1,0.1,4,1,1.0,2.0,0.0,inf\n", "trace line 3: speed must be finite"),
        # beyond 2**510 m a squared ground distance could overflow to inf
        ("1,0.1,4,1,1e200,2.0,0.0,5.0\n", "trace line 3: |x| must be at most 2**510 m, got 1e+200"),
        ("1,0.1,4,1,1.0,-1.4e154,0.0,5.0\n", "trace line 3: |y| must be at most 2**510 m, got -1.4e+154"),
        # ids are never reused: vehicle 4 is gone in timestep 1
        (
            "1,0.1,5,1,1.0,2.0,0.0,5.0\n2,0.2,4,1,1.0,2.0,0.0,5.0\n",
            "trace line 4: vehicle 4 left before timestep 2 and returns",
        ),
        ("1,nan,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: sim_time must be finite"),
        ("5,0.5,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: timestep 5 does not follow 0"),
        ("0,0.0,5,1,1.0,2.0,0.0,5.0\n2,0.2,4,1,1.0,2.0,0.0,5.0\n", "trace line 4: timestep 2"),
        ("0,0.0,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: vehicle 4 repeats in timestep 0"),
        ("1,0.1,4,2,1.0,2.0,0.0,5.0\n", "trace line 3: connected must be 0 or 1"),
        ("1,0.1,4,1,1.0,2.0,0.0\n", "trace line 3: expected 8 columns, got 7"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,9\n", "trace line 3: expected 8 columns, got 9"),
        ("1.5,0.1,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: invalid literal"),
        ("1,0.1,4,1,east,2.0,0.0,5.0\n", "trace line 3: could not convert"),
        ("1,0.1,-4,1,1.0,2.0,0.0,5.0\n", "trace line 3: vehicle index must be non-negative"),
        # its node code 2k + 1 does not fit the graph builder's int64 owner keys
        (
            "1,0.1,4611686018427387904,1,1.0,2.0,0.0,5.0\n",
            "trace line 3: vehicle index must be below 2**62, got 4611686018427387904",
        ),
        ("1,0.1,4,1,1.0,2.0,0.0,-5.0\n", "trace line 3: speed must be >= 0"),
        (
            "0,0.0,5,1,0.0,2.0,1.0,3.0\n",
            "trace line 3: vehicles 4 and 5 share position (0.0, 2.0) in timestep 0",
        ),
        ("0,0.0\n", "trace line 3: timestep 0 has a marker row and other rows"),
        ("1,0.1\n1,0.1,4,1,1.0,2.0,0.0,5.0\n", "trace line 4: timestep 1 has a marker row"),
        ("1,0.1\n1,0.1\n", "trace line 4: timestep 1 has a marker row and other rows"),
        ("1,nan\n", "trace line 3: sim_time must be finite, got nan"),
        ("2,0.2\n", "trace line 3: timestep 2 does not follow 0"),
        ("one,0.1\n", "trace line 3: invalid literal"),
        # every row's clock is checked, not only its step's first row's
        (
            "1,0.1,5,1,1.0,2.0,0.0,5.0\n1,99.5,4,1,3.0,2.0,0.0,5.0\n",
            "trace line 4: timestep 1 has sim_time 99.5, not timestep * dt = 0.1 (dt 0.1)",
        ),
        ("1,0.2\n", "trace line 3: timestep 1 has sim_time 0.2, not timestep * dt = 0.1"),
        # a header is the first line and names the columns in their order;
        # a case that starts with one is the whole trace
        (
            "timestep,sim_time,id,connected,y,x,heading,speed\n" + GOOD_ROW,
            "trace line 1: a header must be the first line and name the columns in order",
        ),
        (
            "timestep,sim_time,id,connected,x,y,heading,speed,length\n" + GOOD_ROW,
            "trace line 1: a header must be the first line",
        ),
        ("timestep-junk\n1,0.1,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: a header must be the first line"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0\n" + TRACE_HEAD, "trace line 4: a header must be the first line"),
        ("\n" + WIDE_HEAD, "trace line 4: a header must be the first line"),
        ("1,0.1,4,1,1\udcff.0,2.0,0.0,5.0\n", "trace line 3: the line holds a byte that is not UTF-8"),
        # connected antennas 1e-200 m apart: their squared distance underflows
        (
            "0,0.0,5,1,1e-200,2.0,0.0,5.0\n",
            "trace line 3: the antennas of vehicles 4 and 5 coincide in timestep 0",
        ),
        (
            "0,0.0,5,0,8.0,2.0,0.0,5.0\n0,0.0,6,1,-1e-200,2.0,0.0,5.0\n",
            "trace line 4: the antennas of vehicles 4 and 6 coincide in timestep 0",
        ),
    ],
)
def test_trace_rejects_bad_rows_naming_the_line(rows, message):
    cfg = default_config()
    lines = io.StringIO(rows if rows.startswith("timestep,") else TRACE_HEAD + GOOD_ROW + rows)
    with pytest.raises(ValueError) as err:
        list(read_trace(lines, cfg))
    assert message in str(err.value)


def test_trace_keeps_coordinates_up_to_the_bound():
    """A coordinate of 2**510 m reads; the next float up does not."""
    bound = 2.0**510
    cfg = default_config()
    rows = f"0,0.0,4,1,{bound!r},{-bound!r},0.0,5.0\n0,0.0,5,1,{-bound!r},{bound!r},0.0,5.0\n"
    snap = next(read_trace(io.StringIO(TRACE_HEAD + rows), cfg))
    assert snap.xy_yaw[:, :2].tolist() == [[bound, -bound], [-bound, bound]]
    beyond = math.nextafter(bound, math.inf)
    with pytest.raises(TraceError, match=r"trace line 2: \|x\| must be at most 2\*\*510 m"):
        next(read_trace(io.StringIO(TRACE_HEAD + f"0,0.0,4,1,{beyond!r},0.0,0.0,5.0\n"), cfg))


def test_trace_may_start_at_any_timestep():
    cfg = default_config()
    lines = io.StringIO(TRACE_HEAD + "7,0.7,4,1,0.0,2.0,0.0,5.0\n8,0.8,4,1,0.5,2.0,0.0,5.0\n")
    snaps = list(read_trace(lines, cfg))
    assert [s.timestep for s in snaps] == [7, 8]


@pytest.mark.parametrize(
    "text, steps",
    [
        ("", 0),
        (TRACE_HEAD, 0),
        (TRACE_HEAD + GOOD_ROW, 1),
        (GOOD_ROW + "1,0.1,5,0,8.0,2.0,0.0,5.0\n2,0.2\n", 3),
        # vehicle 4 is still connected after the first snapshot
        (GOOD_ROW + "1,0.1,4,1,0.5,2.0,0.0,5.0\n", None),
    ],
)
def test_trace_with_nothing_to_score_ends_with_an_error(text, steps):
    snaps, end = read_to_the_end(io.StringIO(text), default_config())
    if steps is None:
        assert end is None
    else:
        assert len(snaps) == steps
        assert str(end) == (
            f"nothing to score: {steps} snapshot(s), and none after the first"
            " (which only seeds the history) has a connected vehicle"
        )


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,0.1,4,1,1.0,2.0,0.0,5.0\n", "trace line 3: expected 12 columns, got 8"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,2.5,3.2\n", "trace line 3: expected 12 columns, got 11"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,nan,2.5,3.2,3.3\n", "trace line 3: length must be finite"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,inf,3.2,3.3\n", "trace line 3: width must be finite"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,2.5,-inf,3.3\n", "trace line 3: height must be finite"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,2.5,3.2,nan\n", "trace line 3: antenna_height must be finite"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,0.0,3.2,3.3\n", "trace line 3: dimensions must be positive"),
        ("1,0.1,4,1,1.0,2.0,0.0,5.0,4.5,1.8,1.5,9.0\n", "trace line 3: antenna_height 9.0 outside"),
        # beyond 2**510 m an antenna's squared height difference could overflow
        (
            "1,0.1,5,1,9.0,2.0,0.0,5.0,1e300,1.8,1.5,1.6\n",
            "trace line 3: length must be at most 2**510 m, got 1e+300",
        ),
        (
            "1,0.1,5,1,9.0,2.0,0.0,5.0,4.5,1.8,1e200,1e200\n",
            "trace line 3: height must be at most 2**510 m, got 1e+200",
        ),
        (
            "1,0.1,5,1,9.0,2.0,0.0,5.0,4.5,1e300,1.5,1.6\n",
            "trace line 3: width must be at most 2**510 m, got 1e+300",
        ),
        (
            "1,0.1,5,1,0.0,0.0,0.0,5.0,4.5,1.8,4.2,5.0\n",
            "trace line 3: the antenna of vehicle 5 is at the RSU's point (0.0, 0.0, 5.0)",
        ),
        (
            "1,0.1,5,0,-0.0,0.0,0.0,5.0,4.5,1.8,4.2,5.0\n",
            "trace line 3: the antenna of vehicle 5 is at the RSU's point",
        ),
    ],
)
def test_trace_with_body_columns_rejects_bad_rows(rows, message):
    cfg = default_config()
    lines = io.StringIO(WIDE_HEAD + WIDE_ROW + rows)
    with pytest.raises(ValueError) as err:
        list(read_trace(lines, cfg))
    assert message in str(err.value)


@pytest.mark.parametrize(
    "row",
    [
        "1,0.1,4,1,1.0,2.0,0.0,5.0,9.0,2.5,3.2,3.3\n",  # longer
        "1,0.1,4,1,1.0,2.0,0.0,5.0,8.0,2.5,3.2,3.4\n",  # antenna higher
        "1,0.1,4,0,1.0,2.0,0.0,5.0,8.0,2.5,3.2,3.3\n",  # no longer connected
    ],
    ids=["body", "antenna", "connected"],
)
def test_trace_rejects_a_vehicle_whose_body_or_flag_changes(row):
    cfg = default_config()
    lines = io.StringIO(WIDE_HEAD + WIDE_ROW + row)
    with pytest.raises(ValueError) as err:
        list(read_trace(lines, cfg))
    assert "trace line 3: vehicle 4 has a body or connected flag other than on line 2" in str(err.value)


@pytest.mark.parametrize(
    "row",
    [
        "0,0.0,5,0,1e-200,2.0,0.0,5.0,8.0,2.5,3.2,3.3\n",  # not connected: no graph node
        "0,0.0,5,1,1e-200,2.0,0.0,5.0,8.0,2.5,3.2,3.4\n",  # antenna higher
        "0,0.0,5,1,1e-150,2.0,0.0,5.0,8.0,2.5,3.2,3.3\n",  # 1e-300 m² apart
    ],
    ids=["unconnected", "higher", "apart"],
)
def test_trace_keeps_antennas_the_graph_builder_keeps_apart(row):
    cfg = default_config()
    lines = io.StringIO(WIDE_HEAD + WIDE_ROW + row + "1,0.1,4,1,0.5,2.0,0.0,5.0,8.0,2.5,3.2,3.3\n")
    snap, _ = read_trace(lines, cfg)
    assert len(snap.vehicles) == 2
    snapshot_graph(snap, cfg.channel, cfg.link_budget_db)


def test_trace_without_body_columns_uses_the_default_body():
    cfg = default_config()
    truck = cfg.vehicle_mix[2]
    trucks_first = dataclasses.replace(cfg, vehicle_mix=(truck, *cfg.vehicle_mix[:2]))
    for head in (TRACE_HEAD, ""):
        snap = next(read_trace(io.StringIO(head + GOOD_ROW), trucks_first))
        assert snap.vehicles[0].dimensions == (truck.length, truck.width, truck.height)
        assert snap.vehicles[0].antenna_height == truck.antenna_height
    snap = next(read_trace(io.StringIO(WIDE_HEAD + WIDE_ROW), cfg))
    assert snap.vehicles[0].dimensions == (8.0, 2.5, 3.2)
    assert snap.vehicles[0].antenna_height == 3.3


@pytest.mark.parametrize("head, row", [(TRACE_HEAD, GOOD_ROW), (WIDE_HEAD, WIDE_ROW)])
def test_trace_marker_rows_read_as_empty_steps(head, row):
    cfg = default_config()
    row = row.replace("0,0.0,", "2,0.2,", 1)
    lines = io.StringIO(head + "0,0.0\n1,0.1\n" + row + "3,0.30000000000000004\n")
    snaps = list(read_trace(lines, cfg))
    assert [(s.timestep, len(s.vehicles)) for s in snaps] == [(0, 0), (1, 0), (2, 1), (3, 0)]
    buf = io.StringIO()
    list(tee_trace(snaps, buf, cfg.dt))
    assert buf.getvalue().splitlines()[1:3] == ["0,0.0", "1,0.1"]
    assert buf.getvalue().splitlines()[-1] == "3,0.30000000000000004"
