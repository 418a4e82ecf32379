from __future__ import annotations

import dataclasses
import math
import stat
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute import prediction
from twinroute.prediction import (
    PREDICTORS,
    ConstantTurnRatePredictor,
    ConstantVelocityPredictor,
    HoldPredictor,
    LearnedPredictor,
    Tracks,
    make_predictor,
    predict,
)
from twinroute.channel import default_channel_params
from twinroute.model import Fleet, NodeId, WorldSnapshot, seconds_to_steps
from twinroute.routing import route_predictive
from twinroute.trace import parse_row

from conftest import TRUCK, circle_history, make_snapshot, make_vehicle
from oracles import oracle_predict


def test_stationary_vehicle_any_predictor_holds():
    history = [make_vehicle(0, 5.0, 7.0, speed=0.0)] * 3
    for predictor in (HoldPredictor(), ConstantVelocityPredictor(), ConstantTurnRatePredictor()):
        track = predict(history, horizon=1.0, dt=0.1, predictor=predictor)
        assert len(track.states) == 10
        for x, y, _ in track.states:
            assert (x, y) == (5.0, 7.0)


def test_constant_velocity_linear_kinematics():
    history = [make_vehicle(0, -1.0, 0.0, speed=10.0), make_vehicle(0, 0.0, 0.0, speed=10.0)]
    track = predict(history, horizon=1.0, dt=0.5, predictor=ConstantVelocityPredictor())
    positions = [(x, y) for x, y, _ in track.states]
    assert positions == [(5.0, 0.0), (10.0, 0.0)]


def test_track_shape_contract():
    """states[k] is the (x, y, heading) k + 1 steps past the last
    observation, a row of a snapshot's xy_yaw; a track holds nothing else."""
    history = [make_vehicle(0, 0.0, 0.0), make_vehicle(0, 1.0, 0.0, connected=False, body=TRUCK)]
    track = predict(history, horizon=3.0, dt=0.1, predictor=ConstantVelocityPredictor())
    assert [f.name for f in dataclasses.fields(track)] == ["states", "degraded"]
    assert not track.degraded
    assert len(track.states) == 30
    for k, state in enumerate(track.states):
        assert state == (1.0 + 10.0 * (k + 1) * 0.1, 0.0, history[-1].heading)


def test_constant_turn_rate_follows_the_arc():
    """Exact circular history in, analytic circle out, to 1e-6 m."""
    radius, speed, dt = 12.0, 6.0, 0.1
    history = circle_history(radius, speed, dt, n=5)
    horizon = (math.pi / 2) * radius / speed  # quarter circle ahead
    track = predict(history, horizon, dt, ConstantTurnRatePredictor())
    omega = speed / radius
    start_angle = omega * dt * 4  # history has 5 samples starting at angle 0
    for j, (x, y, _) in enumerate(track.states, start=1):
        ang = start_angle + omega * dt * j
        expect = (radius * math.cos(ang), radius * math.sin(ang))
        assert math.dist((x, y), expect) < 1e-6


def test_constant_turn_rate_follows_a_slow_turn():
    """A 1e-3 rad/s turn is an arc, not a straight line: on a 10 km circle
    at 10 m/s the forecast follows the circle to 1e-6 m, and after 3 s it
    stands more than 0.01 m off the constant-velocity line."""
    radius, speed, dt = 10_000.0, 10.0, 0.1
    history = circle_history(radius, speed, dt, n=3)
    track = predict(history, 3.0, dt, ConstantTurnRatePredictor())
    straight = predict(history, 3.0, dt, ConstantVelocityPredictor())
    omega = speed / radius
    for j, (x, y, _) in enumerate(track.states, start=1):
        ang = omega * dt * (2 + j)
        assert math.dist((x, y), (radius * math.cos(ang), radius * math.sin(ang))) < 1e-6
    assert math.dist(track.states[-1][:2], straight.states[-1][:2]) > 0.01


def test_truncation_consistency():
    history = circle_history(9.0, 5.0, 0.1, n=4)
    for predictor in (HoldPredictor(), ConstantVelocityPredictor(), ConstantTurnRatePredictor()):
        long = predict(history, horizon=2.0, dt=0.1, predictor=predictor)
        short = predict(history, horizon=1.0, dt=0.1, predictor=predictor)
        assert long.states[: len(short.states)] == short.states


def test_cv_error_grows_with_horizon_on_curves():
    radius, speed, dt = 12.0, 6.0, 0.1
    history = circle_history(radius, speed, dt, n=4)
    track = predict(history, horizon=3.0, dt=dt, predictor=ConstantVelocityPredictor())
    omega = speed / radius
    start_angle = omega * dt * 3
    last = history[-1]
    errors = []
    for j, (x, y, _) in enumerate(track.states, start=1):
        ang = start_angle + omega * dt * j
        truth = (radius * math.cos(ang), radius * math.sin(ang))
        errors.append(math.dist((x, y), truth))
    assert all(b >= a for a, b in zip(errors, errors[1:]))
    # chord-vs-arc closed form at the last step
    phi = omega * dt * len(track.states)
    expect = radius * math.hypot(phi - math.sin(phi), 1.0 - math.cos(phi))
    assert errors[-1] == pytest.approx(expect, abs=1e-9)


def test_insufficient_history_falls_back_to_hold():
    history = [make_vehicle(0, 3.0, 1.0, heading=0.3, speed=8.0)]
    track = predict(history, horizon=1.0, dt=0.1, predictor=ConstantVelocityPredictor())
    assert track.degraded
    assert track.states == ((3.0, 1.0, 0.3),) * 10


def test_hold_returns_the_last_xy_yaw_row():
    """Hold, and the fallback that holds, repeat the last observation's
    row of its snapshot's xy_yaw, heading included."""
    snaps = [
        make_snapshot([make_vehicle(0, -40.0, 3.0), make_vehicle(1, 7.5, -2.25, heading=-2.5)], timestep=k)
        for k in range(2)
    ]
    history = [snap.vehicle(1) for snap in snaps]
    row = tuple(snaps[-1].xy_yaw[1].tolist())
    assert row == (7.5, -2.25, -2.5)
    rows = HoldPredictor().extrapolate(Tracks.observed(snaps, 1), 4, 0.1)
    assert rows.tolist() == [snaps[-1].xy_yaw.tolist()] * 4
    held = predict(history[-1:], horizon=0.4, dt=0.1, predictor=ConstantTurnRatePredictor())
    assert held.degraded and held.states == (row,) * 4


GOOD_ROW = (1.0, 2.0, 0.0)
# rows that are not three finite numbers, as a snapshot's xy_yaw row is
UNSOUND_ROWS = {
    "nan-x": (math.nan, 2.0, 0.0),
    "inf-heading": (1.0, 2.0, math.inf),
    "nan-heading": (1.0, 2.0, math.nan),
    "two-numbers": (1.0, 2.0),
    "four-numbers": (1.0, 2.0, 0.0, 5.0),
    # the ((x, y, z), heading, speed) triple predictors returned before
    "pose-triple": ((1.0, 2.0, 0.0), 0.0, 5.0),
}


@pytest.mark.parametrize(
    "result",
    [
        RuntimeError("no model"),
        [GOOD_ROW],
        # one unsound row, the last, degrades the whole track
        *(pytest.param([GOOD_ROW] * 4 + [row], id=name) for name, row in UNSOUND_ROWS.items()),
    ],
)
def test_failing_or_short_predictor_falls_back_to_hold(result):
    class Broken:
        kind = "broken"
        min_history = 1
        depth = 1

        def extrapolate(self, tracks, steps, dt):
            if isinstance(result, Exception):
                raise result
            return [[row] for row in result]  # (steps, 1 vehicle, row)

    history = [make_vehicle(0, 0.0, 0.0), make_vehicle(0, 3.0, 1.0, heading=1.25)]
    track = predict(history, horizon=0.5, dt=0.1, predictor=Broken())
    assert track.degraded
    assert track.states == ((3.0, 1.0, 1.25),) * 5


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        predict([], 1.0, 0.1, HoldPredictor())


def test_make_predictor_kinds():
    assert list(PREDICTORS) == ["hold", "constant_velocity", "constant_turn_rate", "learned"]
    for kind in PREDICTORS:
        assert make_predictor(kind, ("python3", "model.py")).kind == kind
    assert make_predictor("learned", ("python3", "model.py")).command == ("python3", "model.py")
    with pytest.raises(ValueError):
        make_predictor("lstm")
    with pytest.raises(ValueError, match="learned predictor needs a command"):
        make_predictor("learned")


CV_STUB = """#!/usr/bin/env python3
# reference exchange model: constant velocity from each group's last row
import math, sys
steps, dt = int(sys.argv[1]), float(sys.argv[2])
groups = {}
for line in sys.stdin.read().splitlines():
    if line.strip():
        row = line.split(",")
        groups.setdefault(row[2], []).append(row)
for rows in groups.values():
    ts, t, vid, conn, x, y, heading, speed = rows[-1]
    x, y, heading, speed = float(x), float(y), float(heading), float(speed)
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    for j in range(1, steps + 1):
        px, py = x + vx * j * dt, y + vy * j * dt
        print(f"{int(ts)+j},{float(t)+dt*j!r},{vid},{conn},{px!r},{py!r},{heading!r},{speed!r}")
"""


@pytest.fixture
def cv_stub(tmp_path):
    path = tmp_path / "cv_model.py"
    path.write_text(CV_STUB, encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def test_learned_predictor_subprocess_exchange(cv_stub):
    history = [make_vehicle(0, 0.0, 0.0, heading=0.0, speed=10.0)] * 2
    learned = LearnedPredictor(("python3", str(cv_stub)))
    track = predict(history, horizon=1.0, dt=0.5, predictor=learned)
    internal = predict(history, horizon=1.0, dt=0.5, predictor=ConstantVelocityPredictor())
    assert track.states == internal.states


def one_track(states):
    """The track of one vehicle's states, oldest first, every row of it."""
    return Tracks.observed([make_snapshot([s], timestep=t) for t, s in enumerate(states)], None)


def test_learned_predictor_bad_command_raises():
    history = [make_vehicle(0, 0.0, 0.0)] * 2
    learned = LearnedPredictor(("python3", "-c", "import sys; sys.exit(3)"))
    with pytest.raises(RuntimeError):
        learned.extrapolate(one_track(history), 5, 0.1)


# prints one ROW per step; ts and vid are the last history row's
ECHO_MODEL = """import sys
steps = int(sys.argv[-2])
rows = [line.split(",") for line in sys.stdin.read().splitlines() if line.strip()]
ts, vid = int(rows[-1][0]), rows[-1][2]
for j in range(1, steps + 1):
    print(f"ROW")
"""
GOOD_FORECAST = "{ts + j},0.0,{vid},1,1.0,2.0,0.0,5.0"


def echo_model(row: str) -> LearnedPredictor:
    return LearnedPredictor(("python3", "-c", ECHO_MODEL.replace("ROW", row)))


def test_learned_predictor_accepts_well_formed_rows():
    history = [make_vehicle(3, 0.0, 0.0)] * 2
    out = echo_model(GOOD_FORECAST).extrapolate(one_track(history), 2, 0.5)
    assert out.tolist() == [[[1.0, 2.0, 0.0]]] * 2


@pytest.mark.parametrize(
    "row, message",
    [
        ("{ts + j},0.0,{vid},1,nan,2.0,0.0,5.0", "row 1: x must be finite, got nan"),
        ("{ts + j},0.0,{vid},1,1.0,2.0,inf,5.0", "row 1: heading must be finite, got inf"),
        # the id column is the vehicle index, an int
        ("{ts + j},0.0,v9,1,1.0,2.0,0.0,5.0", "row 1: invalid literal for int() with base 10: 'v9'"),
        ("{ts + j},0.0,9,1,1.0,2.0,0.0,5.0", "row 1: id 9, expected 3"),
        ("{ts + j + 1},0.0,{vid},1,1.0,2.0,0.0,5.0", "row 1: timestep 3, expected 2"),
        ("{ts + j},0.0,{vid},1,1.0,2.0,0.0,-5.0", "row 1: speed must be >= 0, got -5.0"),
        ("{ts + j},0.0,{vid},1,1.0,2.0,0.0,-0.5", "row 1: speed must be >= 0, got -0.5"),
        ("{ts + j},nan,{vid},1,1.0,2.0,0.0,5.0", "row 1: sim_time must be finite, got nan"),
        ("{ts + j},0.0,{vid},2,1.0,2.0,0.0,5.0", "row 1: connected must be 0 or 1, got '2'"),
        ("{ts + j},0.0,{vid},1,1.0,2.0,0.0", "row 1: expected 8 columns, got 7"),
        ("{ts + j},0.0,{vid},1,1.0,east,0.0,5.0", "row 1: could not convert"),
        # two rows per step
        ("{ts + j},0.0,{vid},1,1.0,2.0,0.0,5.0\\n{ts + j},0.0,{vid},1,1.0,2.0,0.0,5.0",
         "learned predictor returned 4 rows, expected 2"),
    ],
)
def test_learned_predictor_rejects_bad_rows(row, message):
    """A group that breaks a row rule is rejected naming it, and its
    vehicle's rows are NaN, which holds it; the wrong number of rows in all
    fails the whole exchange."""
    vehicle = make_vehicle(3, 0.0, 0.0)
    tracks = one_track([vehicle] * 2)
    try:
        out, rejected = echo_model(row).exchange(tracks, 2, 0.5)
    except RuntimeError as err:
        reason = str(err)
    else:
        assert np.isnan(out).all()
        reason = rejected[vehicle.id]
    assert message in reason
    assert predict([vehicle] * 2, 1.0, 0.5, echo_model(row)).degraded


def test_every_row_sent_to_the_model_is_a_trace_row_with_the_vehicle_index(monkeypatch):
    sent = []
    run = subprocess.run

    def recording_run(args, input, **kwargs):
        sent.append(input)
        return run(args, input=input, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    # vehicle 3 is observed 4 times, vehicle 8 enters at the third snapshot
    tracks = {
        3: [make_vehicle(3, 0.5 * k, -1.0, heading=0.25, connected=False) for k in range(4)],
        8: [make_vehicle(8, 9.0, 0.5 * k, heading=-1.5, speed=2.5) for k in range(2)],
    }
    history = [
        make_snapshot([tracks[3][k]] + ([tracks[8][k - 2]] if k >= 2 else []), timestep=k)
        for k in range(4)
    ]
    plan = route_predictive(
        history, 3, steps=2, predictor=LearnedPredictor(("python3", "-c", CV_STUB)),
        dt=0.1, params=default_channel_params(), budget_db=110.0,
    )
    assert plan.degraded_tracks == 0
    (text,) = sent  # one exchange for every vehicle
    rows = text.splitlines()
    assert text.endswith("\n") and len(rows) == 6
    # a group per vehicle, in row order, each numbered from 0
    for row, (k, state) in zip(rows, [*enumerate(tracks[3]), *enumerate(tracks[8])]):
        assert parse_row(row.split(","), wide=False) == (
            k, state.id.index, state.connected,
            [k * 0.1, *state.position[:2], state.heading, state.speed],
        )


@pytest.mark.parametrize(
    "row",
    ["{ts + j},0.0,{vid},1,nan,2.0,0.0,5.0", "{ts + j},0.0,{vid},1,1.0,2.0,0.0,-5.0"],
)
def test_bad_model_output_holds_the_vehicle_and_counts_a_degraded_track(row):
    vehicle = make_vehicle(0, 30.0, 0.0)
    history = [make_snapshot([vehicle], timestep=k) for k in range(2)]
    plan = route_predictive(
        history, 1, steps=2, predictor=echo_model(row),
        dt=0.1, params=default_channel_params(), budget_db=110.0,
    )
    assert plan.degraded_tracks == 1
    assert plan.ids == (vehicle.id,)
    held = [[*vehicle.position[:2], vehicle.heading]]
    assert [step.tolist() for step in plan.forecast.values()] == [held] * 2
    assert all(table[vehicle.id] is not None for table in plan.entries.values())


# the unsound rows an (x, y, heading) array can hold
NON_FINITE_ROWS = {
    name: row for name, row in UNSOUND_ROWS.items()
    if len(row) == 3 and all(isinstance(v, float) for v in row)
}


def plan_with(rows_of):
    """The plan of a 2-step epoch of one sound vehicle and one per
    ``NON_FINITE_ROWS`` entry, whose predictor moves each vehicle 1 m east
    unless ``rows_of(vehicle id, moved row)`` gives its row."""
    sound, *unsound = [
        make_vehicle(k, 30.0 * math.cos(k), 30.0 * math.sin(k), heading=0.5 * k)
        for k in range(1 + len(NON_FINITE_ROWS))
    ]

    class Unsound:
        kind = "unsound"
        min_history = 1
        depth = 1

        def extrapolate(self, tracks, steps, dt):
            last = tracks.xy_yaw[-1].tolist()
            return [[rows_of(vid, (x + 1.0, y, h)) for vid, (x, y, h) in zip(tracks.ids, last)]] * steps

    history = [make_snapshot([sound, *unsound], timestep=k) for k in range(2)]
    plan = route_predictive(
        history, 1, steps=2, predictor=Unsound(),
        dt=0.1, params=default_channel_params(), budget_db=110.0,
    )
    assert all(route is not None for table in plan.entries.values() for route in table.values())
    return plan, sound, unsound


def test_unsound_forecast_poses_hold_their_vehicles_and_count_as_degraded():
    """A user predictor's non-finite row holds its vehicle, counted like a
    failing one, so it is still routed; every other vehicle keeps its
    forecast."""
    rows = dict(zip(map(NodeId.vehicle, range(1, 1 + len(NON_FINITE_ROWS))), NON_FINITE_ROWS.values()))
    plan, sound, unsound = plan_with(rows.get)
    assert plan.degraded_tracks == len(NON_FINITE_ROWS) == 3
    moved = [sound.position[0] + 1.0, sound.position[1], sound.heading]
    held = [[*v.position[:2], v.heading] for v in unsound]
    assert [step.tolist() for step in plan.forecast.values()] == [[moved, *held]] * 2


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=name) for name, row in UNSOUND_ROWS.items() if name not in NON_FINITE_ROWS]
)
def test_a_forecast_of_another_shape_holds_every_vehicle(row):
    """A row of another length makes no (steps, V, 3) array: every
    vehicle holds, as when the predictor raises."""
    plan, sound, unsound = plan_with(lambda vid, moved: row if vid == NodeId.vehicle(1) else moved)
    assert plan.degraded_tracks == 1 + len(unsound)
    held = [[*v.position[:2], v.heading] for v in (sound, *unsound)]
    assert [step.tolist() for step in plan.forecast.values()] == [held] * 2


@st.composite
def observed_histories(draw):
    """A run of 1-6 consecutive snapshots: every vehicle of the last one
    enters at a drawn step and stays, others leave before the end, rows
    come in a drawn order, and a step with the last step's ids shares its
    fleet. Speeds may be large enough that a forecast overflows to inf."""
    n_steps = draw(st.integers(1, 6))
    spans = [(draw(st.integers(0, n_steps - 1)), n_steps - 1) for _ in range(draw(st.integers(0, 5)))]
    if n_steps > 1:
        for _ in range(draw(st.integers(0, 3))):
            enter = draw(st.integers(0, n_steps - 2))
            spans.append((enter, draw(st.integers(enter, n_steps - 2))))
    order = draw(st.permutations(range(len(spans))))
    coordinate = st.floats(-1e3, 1e3)
    speed = st.floats(0.0, 60.0) | st.floats(1e300, 1.7e308)
    history, fleet = [], None
    for t in range(n_steps):
        rows = [k for k in order if spans[k][0] <= t <= spans[k][1]]
        ids = tuple(NodeId.vehicle(k) for k in rows)
        if fleet is None or fleet.ids != ids:
            bodies = np.tile((4.5, 1.8, 1.5), (len(rows), 1))
            fleet = Fleet(ids, bodies, np.full(len(rows), 1.6), np.array([k % 2 == 0 for k in rows]))
        xy_yaw = np.array(
            [(draw(coordinate), draw(coordinate), draw(st.floats(-4.0, 4.0))) for _ in rows]
        ).reshape(len(rows), 3)
        speeds = np.array([draw(speed) for _ in rows]).reshape(len(rows))
        history.append(WorldSnapshot(t, (0.0, 0.0, 5.0), fleet, xy_yaw, speeds))
    return history


def test_the_batch_forecast_matches_the_per_vehicle_oracle(fuzz_scale):
    """Differential testing against the per-vehicle predictors the batch
    replaced: for hold, constant velocity and turn rate, every forecast
    row's bytes and every vehicle's degraded flag equal the oracle's over
    drawn histories, with tracks that enter mid-history, tracks shorter
    than ``min_history``, and speeds whose forecast overflows to inf,
    which hold only their own vehicle. Each vehicle's one-track
    ``predict`` of its states gives its column of the batch, flag
    included."""

    @settings(max_examples=60 * fuzz_scale, deadline=None)
    @given(
        observed_histories(),
        st.sampled_from(["hold", "constant_velocity", "constant_turn_rate"]),
        st.integers(1, 30),
        st.floats(0.01, 1.0),
    )
    # vehicle 1 is short of history; vehicle 0's speed overflows at step 2
    @example(
        [
            make_snapshot([make_vehicle(0, 1.0, 2.0, heading=0.3, speed=1.5e308)], timestep=0),
            make_snapshot(
                [make_vehicle(0, 2.0, 2.0, heading=0.5, speed=1.5e308), make_vehicle(1, 5.0, 5.0)],
                timestep=1,
            ),
        ],
        "constant_turn_rate", 3, 0.1,
    ).via("a short track and an overflowing one")
    def check(history, kind, steps, dt):
        predictor = make_predictor(kind)
        horizon = steps * dt
        steps = seconds_to_steps(horizon, dt)
        rows, degraded = predict(Tracks.observed(history, predictor.depth), horizon, dt, predictor)
        last = history[-1]
        expected, held = [], []
        for k, vid in enumerate(last.fleet.ids):
            states = [s.vehicle(s.fleet.row[vid]) for s in history if vid in s.fleet.row]
            track, flag = oracle_predict(kind, states, steps, dt)
            expected.append(track)
            held.append(flag)
            one = predict(states, horizon, dt, predictor)
            assert np.array(one.states, np.float64).reshape(steps, 3).tobytes() == rows[:, k].tobytes()
            assert one.degraded == degraded[k]
        want = np.array(expected, np.float64).reshape(len(expected), steps, 3).transpose(1, 0, 2)
        assert rows.shape == want.shape
        assert np.ascontiguousarray(rows).tobytes() == np.ascontiguousarray(want).tobytes()
        assert degraded.tolist() == held

    check()


def test_tracks_gather_only_the_rows_a_predictor_reads():
    """Depth 1 is a view of the last snapshot's columns; a deeper gather
    holds each vehicle's newest rows, NaN before it entered, and the
    count is every observed row whatever the depth."""
    a, b = make_vehicle(0, 1.0, 0.0), make_vehicle(1, 9.0, 0.0, speed=3.0)
    history = [
        make_snapshot([a], timestep=0), make_snapshot([a, b], timestep=1), make_snapshot([b, a], timestep=2)
    ]
    one = Tracks.observed(history, 1)
    assert np.shares_memory(one.xy_yaw, history[-1].xy_yaw) and one.count.tolist() == [2, 3]
    assert one.ids == (b.id, a.id) and one.connected.tolist() == [True, True]
    two = Tracks.observed(history, 2)
    assert two.xy_yaw[:, :, 0].tolist() == [[9.0, 1.0], [9.0, 1.0]]
    every = Tracks.observed(history, None)
    assert len(every.xy_yaw) == 3 and every.count.tolist() == [2, 3]
    assert math.isnan(every.speed[0, 0]) and every.speed[:, 1].tolist() == [10.0] * 3


def test_a_learned_epoch_is_one_exchange_equal_to_the_per_vehicle_ones(monkeypatch, cv_stub):
    """A 30-vehicle epoch of a mixed run asks the model once; every
    forecast row equals the one-vehicle exchange of that vehicle's history."""
    from twinroute.config import default_config
    from twinroute.mobility import snapshot_stream

    cfg = default_config(duration=3.0, vehicle_count=30, connected_fraction=0.5, seed=1)
    history = list(snapshot_stream(cfg))[-11:]
    learned = LearnedPredictor(("python3", str(cv_stub)))
    calls = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or run(*a, **k))
    rows, degraded = predict(Tracks.observed(history, None), 0.5, cfg.dt, learned)
    assert len(calls) == 1 and not degraded.any()
    for k, vid in enumerate(history[-1].fleet.ids):
        states = [s.vehicle(s.fleet.row[vid]) for s in history if vid in s.fleet.row]
        assert rows[:, k].tolist() == [list(r) for r in predict(states, 0.5, cfg.dt, learned).states]
    assert len(calls) == 1 + len(history[-1].fleet.ids)


GROUPED_MODEL = """import sys
steps = int(sys.argv[-2])
groups = {}
for line in sys.stdin.read().splitlines():
    if line.strip():
        row = line.split(",")
        groups.setdefault(row[2], []).append(int(row[0]))
for vid, ts in groups.items():
    x = "nan" if vid == "1" else "1.0"
    for j in range(1, steps + 1):
        print(f"{ts[-1] + j},0.0,{vid},1,{x},2.0,0.0,5.0")
"""


def test_a_malformed_group_holds_only_its_vehicle():
    vehicles = [make_vehicle(k, 10.0 * k + 5.0, 3.0) for k in range(3)]
    tracks = Tracks.observed([make_snapshot(vehicles, timestep=k) for k in range(2)], None)
    learned = LearnedPredictor(("python3", "-c", GROUPED_MODEL))
    out, rejected = learned.exchange(tracks, 2, 0.1)
    assert list(rejected) == [NodeId.vehicle(1)]
    assert "row 1: x must be finite, got nan" in rejected[NodeId.vehicle(1)]
    rows, degraded = predict(tracks, 0.2, 0.1, learned)
    assert degraded.tolist() == [False, True, False]
    assert rows.tolist() == [[[1.0, 2.0, 0.0], [15.0, 3.0, 0.0], [1.0, 2.0, 0.0]]] * 2


@pytest.mark.parametrize(
    "command, timeout",
    [
        (("python3", "-c", "import sys; sys.exit(1)"), prediction.MODEL_TIMEOUT_S),
        (("python3", "-c", "import time; time.sleep(30)"), 0.5),
    ],
    ids=["crash", "timeout"],
)
def test_a_crashing_or_hung_model_holds_every_vehicle(monkeypatch, command, timeout):
    monkeypatch.setattr(prediction, "MODEL_TIMEOUT_S", timeout)
    vehicles = [make_vehicle(k, 10.0 * k + 5.0, 3.0, heading=0.1 * k) for k in range(3)]
    history = [make_snapshot(vehicles, timestep=k) for k in range(2)]
    plan = route_predictive(
        history, 1, steps=2, predictor=LearnedPredictor(command),
        dt=0.1, params=default_channel_params(), budget_db=110.0,
    )
    assert plan.degraded_tracks == 3
    held = [[*v.position[:2], v.heading] for v in vehicles]
    assert [step.tolist() for step in plan.forecast.values()] == [held] * 2
