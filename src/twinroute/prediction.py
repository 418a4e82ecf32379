"""Pluggable trajectory prediction: every track of an epoch in one call.

A planning epoch forecasts every vehicle of the last observed snapshot at
once. :meth:`Tracks.observed` gathers their histories as columns: per
vehicle its newest observed rows of x, y, heading and speed, newest last,
its observed-row count, id and ``connected`` flag. Only the ``depth``
newest rows a predictor reads are gathered: one for hold and constant
velocity, two for turn rate, all of them for the learned model. Its
``extrapolate(tracks, steps, dt)`` returns the ``(steps, V, 3)`` array of
``(x, y, heading)`` rows, a snapshot's ``xy_yaw`` per step: the poses
whose links the predictive planner finds and routes, building no graph.
A forecast is these rows alone: a vehicle's id, body and flag are those
of its last observed state.
:func:`predict` is the one forecasting path and holds the one fallback.

The analytic predictors are the reference implementations; they keep
libm's ``math.cos`` and ``math.sin`` per vehicle, whose bits numpy's
vectorized kernels need not match. A learned model plugs in through a
subprocess text exchange in the trace format of :mod:`twinroute.trace`,
keeping ML frameworks out of this package.

Learned-model contract: one exchange per epoch. The command receives every
track's history rows on stdin as
``timestep,sim_time,id,connected,x,y,heading,speed`` lines (no header),
one group of rows per vehicle, oldest first, groups in row order; ``id``
is the vehicle index k of ``NodeId.vehicle(k)`` and each group's
timesteps are numbered from 0. Two extra argv values
``<horizon_steps> <dt>`` follow. It must print ``horizon_steps`` rows per
group, the groups in the order received, in the same schema: each a valid
trace row (finite numbers, a 0/1 flag, an int id and timestep) with its
group's id, timesteps continuing from the group's last input row, and a
speed >= 0. The predictor returns each row's x, y and heading. A group
that breaks a rule holds only its vehicle; another number of rows in
all, a non-zero exit, or a model still running after ``MODEL_TIMEOUT_S``
seconds (it is killed) holds every vehicle.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .model import Fleet, NodeId, Pose, WorldSnapshot, seconds_to_steps
from .trace import parse_row, trace_row

MODEL_TIMEOUT_S = 30.0


@dataclass(frozen=True, eq=False)
class Tracks:
    """The observed histories of V vehicles, as columns.

    ``xy_yaw`` is ``(D, V, 3)`` and ``speed`` ``(D, V)``, laid out as a
    run of D snapshots' columns: column ``k`` holds vehicle ``k``'s
    newest ``min(count[k], D)`` observed rows, newest last, and NaN in the
    rows older than its first. ``count[k]`` is the number of rows observed
    of vehicle ``k``, which may exceed D. ``ids`` and ``connected`` are
    the vehicles' fleet columns. The arrays may be views of snapshot
    columns: read them, do not write them.
    """

    xy_yaw: np.ndarray
    speed: np.ndarray
    count: np.ndarray
    ids: tuple[NodeId, ...]
    connected: np.ndarray

    @classmethod
    def observed(cls, history: Sequence[WorldSnapshot], depth: int | None) -> "Tracks":
        """The tracks of the last snapshot's vehicles in ``history``, a run
        of consecutive snapshots, oldest first, with their newest ``depth``
        rows (all rows for None).

        A vehicle's track is the run of newest snapshots that hold it. In
        a stream a vehicle is in every snapshot from the one it enters to
        the one it leaves, so that run is every snapshot of the history
        that holds it. Snapshots of one vehicle set share a fleet, so each
        fleet's rows are looked up once; only the ``depth`` newest
        snapshots are gathered from.
        """
        last = history[-1]
        fleet = last.fleet
        ids = fleet.ids
        n = len(ids)
        # rows of the last snapshot's vehicles in each older fleet, -1 where
        # absent; None for the last fleet, whose rows are its own
        rows_in = {fleet: None}
        count = np.zeros(n, np.intp)
        alive = np.ones(n, bool)
        run, run_fleet = 0, fleet
        for snap in reversed(history):
            if snap.fleet is not run_fleet:
                count += run * alive
                run, run_fleet = 0, snap.fleet
                rows = rows_in.get(run_fleet)
                if rows is None:
                    row = run_fleet.row
                    rows = rows_in[run_fleet] = np.array([row.get(v, -1) for v in ids], np.intp)
                alive &= rows >= 0
                if not alive.any():
                    break
            run += 1
        else:
            count += run * alive
        # no row older than the longest track is read: every fleet it
        # reaches back to was looked up above
        newest = int(count.max(initial=1))
        depth = newest if depth is None else min(depth, newest)
        if depth == 1:  # views of the last snapshot's columns
            return cls(last.xy_yaw[None], last.speed[None], count, ids, fleet.connected)
        xy_yaw = np.empty((depth, n, 3))
        speed = np.empty((depth, n))
        for d, snap in enumerate(history[-depth:], start=-depth):
            rows = rows_in[snap.fleet]
            seen = count >= -d  # the vehicles observed d steps back
            xy = snap.xy_yaw if rows is None else snap.xy_yaw.take(rows, axis=0)
            v = snap.speed if rows is None else snap.speed.take(rows)
            xy_yaw[d] = np.where(seen[:, None], xy, np.nan)
            speed[d] = np.where(seen, v, np.nan)
        return cls(xy_yaw, speed, count, ids, fleet.connected)


class TrajectoryPredictor(Protocol):
    """Anything that can extrapolate a batch of tracks.

    ``min_history`` is the number of observed rows a track needs (a
    shorter one holds); ``depth`` the newest rows of each track that
    ``extrapolate`` reads, None for all of them.
    """

    kind: str
    min_history: int
    depth: int | None

    def extrapolate(self, tracks: Tracks, steps: int, dt: float) -> np.ndarray:
        """Return the ``(steps, V, 3)`` rows ``(x, y, heading)`` of every
        track; a NaN row marks a track it cannot forecast."""
        ...


class HoldPredictor:
    kind = "hold"
    min_history = 1
    depth = 1

    def extrapolate(self, tracks, steps, dt):
        return np.broadcast_to(tracks.xy_yaw[-1], (steps, *tracks.xy_yaw.shape[1:]))


class ConstantVelocityPredictor:
    kind = "constant_velocity"
    min_history = 2
    depth = 1

    def extrapolate(self, tracks, steps, dt):
        last = tracks.xy_yaw[-1]
        cos, sin = math.cos, math.sin
        pairs = list(zip(tracks.speed[-1].tolist(), last[:, 2].tolist()))
        vx = np.array([v * cos(h) for v, h in pairs])
        vy = np.array([v * sin(h) for v, h in pairs])
        j = np.arange(1.0, steps + 1.0)[:, None]
        out = np.empty((steps, *last.shape))
        # elementwise x + vx * j * dt, rounded as Python rounds it; a speed
        # whose term overflows to inf is a non-finite row, which predict holds
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, :, 0] = last[:, 0] + vx * j * dt
            out[:, :, 1] = last[:, 1] + vy * j * dt
        out[:, :, 2] = last[:, 2]
        return out


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


class ConstantTurnRatePredictor:
    """Fits yaw rate from the last two headings, then integrates an arc."""

    kind = "constant_turn_rate"
    min_history = 2
    depth = 2
    straight_rate_eps = 1e-9  # rad/s below which the motion is treated as straight

    def extrapolate(self, tracks, steps, dt):
        out = np.empty((steps, len(tracks.ids), 3))
        rows = zip(tracks.xy_yaw[-1].tolist(), tracks.speed[-1].tolist(), tracks.xy_yaw[-2, :, 2].tolist())
        for k, ((x, y, h), v, previous) in enumerate(rows):
            omega = _wrap_angle(h - previous) / dt
            if abs(omega) < self.straight_rate_eps or v == 0.0:
                vx = v * math.cos(h)
                vy = v * math.sin(h)
                out[:, k] = [(x + vx * j * dt, y + vy * j * dt, h) for j in range(1, steps + 1)]
                continue
            radius = v / omega
            arc = []
            for j in range(1, steps + 1):
                tau = j * dt
                px = x + radius * (math.sin(h + omega * tau) - math.sin(h))
                py = y - radius * (math.cos(h + omega * tau) - math.cos(h))
                arc.append((px, py, _wrap_angle(h + omega * tau)))
            out[:, k] = arc
        return out


def _read_group(lines: list[str], index: int, observed: int) -> list[Pose]:
    """The ``(x, y, heading)`` rows of one vehicle's printed group; a row
    that breaks the contract raises ValueError naming the rule."""
    out = []
    for j, ln in enumerate(lines, start=1):
        try:
            ts, vehicle, _, (_, x, y, heading, speed) = parse_row(ln.split(","), wide=False)
            if vehicle != index:
                raise ValueError(f"id {vehicle}, expected {index}")
            if ts != observed - 1 + j:
                raise ValueError(f"timestep {ts}, expected {observed - 1 + j}")
            if speed < 0:
                raise ValueError(f"speed must be >= 0, got {speed!r}")
        except ValueError as exc:
            raise ValueError(f"learned predictor row {j}: {exc}: {ln!r}") from None
        out.append((x, y, heading))
    return out


class LearnedPredictor:
    """Delegates to an external model through the trace-format exchange."""

    kind = "learned"
    min_history = 1
    depth = None

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ValueError("learned predictor needs a command")
        self.command = tuple(command)

    def extrapolate(self, tracks, steps, dt):
        return self.exchange(tracks, steps, dt)[0]

    def exchange(self, tracks: Tracks, steps: int, dt: float) -> tuple[np.ndarray, dict[NodeId, str]]:
        """One exchange with the model: the ``(steps, V, 3)`` forecast, NaN
        for each vehicle whose group breaks the contract, and per such
        vehicle the rule its group broke. A failed exchange raises
        RuntimeError, or ``subprocess.TimeoutExpired``."""
        ids, counts = tracks.ids, tracks.count.tolist()
        depth = len(tracks.xy_yaw)
        poses, speeds = tracks.xy_yaw.tolist(), tracks.speed.tolist()
        # each group numbered from 0: absolute timesteps are not known here
        lines = [
            trace_row(i, dt, vid.index, connected, *poses[d][k], speeds[d][k])
            for k, (vid, connected, n) in enumerate(zip(ids, tracks.connected.tolist(), counts))
            for i, d in enumerate(range(depth - n, depth))
        ]
        proc = subprocess.run(
            [*self.command, str(steps), repr(dt)],
            input="".join(lines),
            capture_output=True,
            text=True,
            timeout=MODEL_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"learned predictor exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        rows = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if len(rows) != steps * len(ids):
            raise RuntimeError(
                f"learned predictor returned {len(rows)} rows, expected {steps * len(ids)}"
            )
        out = np.full((steps, len(ids), 3), np.nan)
        rejected = {}
        for k, (vid, n) in enumerate(zip(ids, counts)):
            try:
                out[:, k] = _read_group(rows[k * steps:(k + 1) * steps], vid.index, n)
            except ValueError as exc:  # left NaN: this vehicle holds
                rejected[vid] = str(exc)
        return out, rejected


PREDICTORS: dict[str, type] = {
    cls.kind: cls
    for cls in (HoldPredictor, ConstantVelocityPredictor, ConstantTurnRatePredictor, LearnedPredictor)
}


def make_predictor(kind: str, learned_command: Sequence[str] | None = None) -> TrajectoryPredictor:
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor kind: {kind!r}")
    return LearnedPredictor(learned_command or ()) if kind == "learned" else PREDICTORS[kind]()


@dataclass(frozen=True)
class PredictedTrack:
    """Forecast rows of one vehicle, as :func:`predict`'s one-track mode
    returns them; only ``bench/test_bench.py`` and the tests use that mode.

    ``states[k]`` is the vehicle's ``(x, y, heading)`` ``k + 1`` steps
    after its last observed state. ``degraded`` marks tracks produced by
    the hold fallback because the requested predictor lacked history or
    failed.
    """

    states: tuple[Pose, ...]
    degraded: bool = False


def predict(history, horizon: float, dt: float, predictor: TrajectoryPredictor):
    """Forecast across the horizon, one ``(x, y, heading)`` row per dt.

    ``history`` is a :class:`Tracks` batch, and the result is its
    ``(steps, V, 3)`` rows, row ``s`` being ``s + 1`` steps past the last
    observation, with the ``(V,)`` degraded mask. Or it is one vehicle's
    states, non-empty and time-ordered, oldest first, and the result is
    the :class:`PredictedTrack` of that one track: each state becomes one
    snapshot over the last state's fleet, and :meth:`Tracks.observed`
    gathers them as a batch of one. No run takes the one-track mode; it
    stays for ``bench/test_bench.py``, which compares one track of the
    learned model with the built-in constant velocity.

    This is the one path every forecast takes, and its one fallback. A
    vehicle whose track has fewer than ``min_history`` rows, or whose
    forecast holds a non-finite number, holds its last observed row and is
    degraded; when the predictor raises or returns another shape, every
    vehicle does. The predictor is not called when no track has enough
    history.
    """
    steps = seconds_to_steps(horizon, dt)
    if isinstance(history, Tracks):
        return _forecast(history, steps, dt, predictor)
    if not history:
        raise ValueError("history must contain at least one state")
    # one snapshot per state, all over the last state's fleet: one track
    fleet = Fleet.from_vehicles(history[-1:])
    states = np.array([(*s.position[:2], s.heading, s.speed) for s in history]).reshape(-1, 1, 4)
    snapshots = [
        WorldSnapshot(t, (0.0, 0.0, 0.0), fleet, row[:, :3], row[:, 3]) for t, row in enumerate(states)
    ]
    rows, degraded = _forecast(Tracks.observed(snapshots, predictor.depth), steps, dt, predictor)
    return PredictedTrack(tuple(map(tuple, rows[:, 0].tolist())), bool(degraded[0]))


def _forecast(
    tracks: Tracks, steps: int, dt: float, predictor: TrajectoryPredictor
) -> tuple[np.ndarray, np.ndarray]:
    last = tracks.xy_yaw[-1]
    shape = (steps, *last.shape)
    degraded = tracks.count < predictor.min_history
    if not degraded.all():
        try:
            rows = np.asarray(predictor.extrapolate(tracks, steps, dt), np.float64)
            if rows.shape != shape:
                raise ValueError(f"forecast has shape {rows.shape}, not {shape}")
            degraded |= ~np.isfinite(rows).all(axis=(0, 2))
        except Exception:  # a failing model holds every vehicle
            degraded[:] = True
        if not degraded.any():
            return rows, degraded
    if degraded.all():
        return np.broadcast_to(last, shape), degraded
    return np.where(degraded[:, None], last, rows), degraded
