from __future__ import annotations

import dataclasses
import math
import stat
import subprocess

import pytest

from twinroute.prediction import (
    PREDICTORS,
    ConstantTurnRatePredictor,
    ConstantVelocityPredictor,
    HoldPredictor,
    LearnedPredictor,
    make_predictor,
    predict,
)
from twinroute.channel import default_channel_params
from twinroute.routing import route_predictive
from twinroute.trace import parse_row

from conftest import TRUCK, circle_history, make_snapshot, make_vehicle


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
    assert HoldPredictor().extrapolate(history, 4, 0.1) == [row] * 4
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

        def extrapolate(self, history, steps, dt):
            if isinstance(result, Exception):
                raise result
            return result

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
# reference exchange model: constant velocity from the last history row
import math, sys
steps, dt = int(sys.argv[1]), float(sys.argv[2])
rows = [line.split(",") for line in sys.stdin.read().splitlines() if line.strip()]
ts, t, vid, conn, x, y, heading, speed = rows[-1]
x, y, heading, speed = float(x), float(y), float(heading), float(speed)
for j in range(1, steps + 1):
    px = x + speed * math.cos(heading) * dt * j
    py = y + speed * math.sin(heading) * dt * j
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


def test_learned_predictor_bad_command_raises():
    history = [make_vehicle(0, 0.0, 0.0)] * 2
    learned = LearnedPredictor(("python3", "-c", "import sys; sys.exit(3)"))
    with pytest.raises(RuntimeError):
        learned.extrapolate(history, 5, 0.1)


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
    out = echo_model(GOOD_FORECAST).extrapolate(history, 2, 0.5)
    assert out == [(1.0, 2.0, 0.0)] * 2


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
    history = [make_vehicle(3, 0.0, 0.0)] * 2
    with pytest.raises(RuntimeError) as err:
        echo_model(row).extrapolate(history, 2, 0.5)
    assert message in str(err.value)


def test_every_row_sent_to_the_model_is_a_trace_row_with_the_vehicle_index(monkeypatch):
    sent = []
    run = subprocess.run

    def recording_run(args, input, **kwargs):
        sent.append(input)
        return run(args, input=input, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    history = [make_vehicle(3, 0.5 * k, -1.0, heading=0.25, connected=False) for k in range(4)]
    echo_model(GOOD_FORECAST).extrapolate(history, 2, 0.1)
    (text,) = sent
    rows = text.splitlines()
    assert text.endswith("\n") and len(rows) == len(history)
    for k, (row, state) in enumerate(zip(rows, history)):
        assert parse_row(row.split(","), wide=False) == (
            k, 3, False, [k * 0.1, *state.position[:2], state.heading, state.speed]
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


def test_unsound_forecast_poses_hold_their_vehicles_and_count_as_degraded():
    """A user predictor's unsound track is held and counted like a failing
    one, so its vehicle is still routed; every other vehicle keeps its
    forecast."""
    sound, *unsound = [
        make_vehicle(k, 30.0 * math.cos(k), 30.0 * math.sin(k), heading=0.5 * k)
        for k in range(1 + len(UNSOUND_ROWS))
    ]
    rows = dict(zip([v.id for v in unsound], UNSOUND_ROWS.values()))

    class Unsound:
        kind = "unsound"
        min_history = 1

        def extrapolate(self, history, steps, dt):
            last = history[-1]
            x, y, _ = last.position
            return [rows.get(last.id, (x + 1.0, y, last.heading))] * steps

    history = [make_snapshot([sound, *unsound], timestep=k) for k in range(2)]
    plan = route_predictive(
        history, 1, steps=2, predictor=Unsound(),
        dt=0.1, params=default_channel_params(), budget_db=110.0,
    )
    assert plan.degraded_tracks == len(UNSOUND_ROWS)
    moved = [sound.position[0] + 1.0, sound.position[1], sound.heading]
    held = [[*v.position[:2], v.heading] for v in unsound]
    assert [step.tolist() for step in plan.forecast.values()] == [[moved, *held]] * 2
    assert all(route is not None for table in plan.entries.values() for route in table.values())
