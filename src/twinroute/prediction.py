"""Pluggable trajectory prediction.

Every predictor consumes a vehicle's recent state history (oldest first)
and emits one row ``(x, y, heading)`` per timestep across the requested
horizon: the row a snapshot's ``xy_yaw`` holds for the vehicle, and all
the forecast graph reads of it. A forecast is these rows alone: the
vehicle's id, body and ``connected`` flag are those of its last observed
state, so no forecast step is rebuilt as a ``VehicleState``. The
analytic predictors are the reference implementations; a learned model
plugs in through a subprocess text exchange in the trace format of
:mod:`twinroute.trace`, keeping ML frameworks out of this package.

Learned-model contract: the command receives history rows on stdin as
``timestep,sim_time,id,connected,x,y,heading,speed`` lines (no header),
``id`` being the vehicle index k of ``NodeId.vehicle(k)`` and timesteps
numbered from 0, followed by two extra argv values
``<horizon_steps> <dt>``. It must print exactly ``horizon_steps`` rows in
the same schema, each a valid trace row (finite numbers, a 0/1 flag, an
int id and timestep), with the id that was sent, timesteps continuing
from the last input row, and a speed >= 0; any other output raises
RuntimeError. The predictor returns each row's x, y and heading. A model
still running after ``MODEL_TIMEOUT_S`` seconds is killed and raises
``subprocess.TimeoutExpired``.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import Protocol, Sequence

from .model import Pose, VehicleState, seconds_to_steps
from .trace import parse_row, trace_row

MODEL_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class PredictedTrack:
    """Forecast rows of one vehicle.

    ``states[k]`` is the vehicle's ``(x, y, heading)`` ``k + 1`` steps
    after its last observed state. ``degraded`` marks tracks produced by
    the hold fallback because the requested predictor lacked history or
    failed.
    """

    states: tuple[Pose, ...]
    degraded: bool = False


class TrajectoryPredictor(Protocol):
    """Anything that can extrapolate a state history."""

    kind: str
    min_history: int

    def extrapolate(self, history: Sequence[VehicleState], steps: int, dt: float) -> list[Pose]:
        """Return ``steps`` rows ``(x, y, heading)``."""
        ...


class HoldPredictor:
    kind = "hold"
    min_history = 1

    def extrapolate(self, history, steps, dt):
        last = history[-1]
        x, y, _ = last.position
        return [(x, y, last.heading)] * steps


class ConstantVelocityPredictor:
    kind = "constant_velocity"
    min_history = 2

    def extrapolate(self, history, steps, dt):
        last = history[-1]
        vx = last.speed * math.cos(last.heading)
        vy = last.speed * math.sin(last.heading)
        x, y, _ = last.position
        return [(x + vx * j * dt, y + vy * j * dt, last.heading) for j in range(1, steps + 1)]


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


class ConstantTurnRatePredictor:
    """Fits yaw rate from the last two headings, then integrates an arc."""

    kind = "constant_turn_rate"
    min_history = 2
    straight_rate_eps = 1e-9  # rad/s below which the motion is treated as straight

    def extrapolate(self, history, steps, dt):
        last = history[-1]
        prev = history[-2]
        omega = _wrap_angle(last.heading - prev.heading) / dt
        if abs(omega) < self.straight_rate_eps or last.speed == 0.0:
            return ConstantVelocityPredictor().extrapolate(history, steps, dt)
        x, y, _ = last.position
        v = last.speed
        h = last.heading
        radius = v / omega
        out = []
        for j in range(1, steps + 1):
            tau = j * dt
            px = x + radius * (math.sin(h + omega * tau) - math.sin(h))
            py = y - radius * (math.cos(h + omega * tau) - math.cos(h))
            out.append((px, py, _wrap_angle(h + omega * tau)))
        return out


class LearnedPredictor:
    """Delegates to an external model through the trace-format exchange."""

    kind = "learned"
    min_history = 1

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ValueError("learned predictor needs a command")
        self.command = tuple(command)

    def extrapolate(self, history, steps, dt):
        # relative numbering; absolute timesteps are not known here
        lines = [
            trace_row(i, dt, s.id.index, s.connected, *s.position[:2], s.heading, s.speed)
            for i, s in enumerate(history)
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
        out = []
        rows = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if len(rows) != steps:
            raise RuntimeError(
                f"learned predictor returned {len(rows)} rows, expected {steps}"
            )
        vehicle = history[-1].id.index
        for j, ln in enumerate(rows, start=1):
            timestep = len(history) - 1 + j
            try:
                ts, index, _, (_, x, y, heading, speed) = parse_row(ln.split(","), wide=False)
                if index != vehicle:
                    raise ValueError(f"id {index}, expected {vehicle}")
                if ts != timestep:
                    raise ValueError(f"timestep {ts}, expected {timestep}")
                if speed < 0:
                    raise ValueError(f"speed must be >= 0, got {speed!r}")
            except ValueError as exc:
                raise RuntimeError(f"learned predictor row {j}: {exc}: {ln!r}") from None
            out.append((x, y, heading))
        return out


PREDICTORS: dict[str, type] = {
    cls.kind: cls
    for cls in (HoldPredictor, ConstantVelocityPredictor, ConstantTurnRatePredictor, LearnedPredictor)
}


def make_predictor(kind: str, learned_command: Sequence[str] | None = None) -> TrajectoryPredictor:
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor kind: {kind!r}")
    return LearnedPredictor(learned_command or ()) if kind == "learned" else PREDICTORS[kind]()


def _sound(rows: Sequence[Pose]) -> bool:
    """Every row three finite numbers; a row of another length fails to unpack."""
    isfinite = math.isfinite
    # a plain loop: a quarter of the time of all() over map(math.isfinite, ...)
    for x, y, heading in rows:
        if not (isfinite(x) and isfinite(y) and isfinite(heading)):
            return False
    return True


def predict(
    history: Sequence[VehicleState],
    horizon: float,
    dt: float,
    predictor: TrajectoryPredictor,
) -> PredictedTrack:
    """Forecast one vehicle across the horizon; one ``(x, y, heading)``
    row per dt.

    This is the one fallback of the predictive path: when the predictor
    lacks history, raises, returns the wrong number of rows, or returns a
    row that is not three finite numbers, the vehicle holds its last
    observed row and the track is marked degraded. The history must be
    non-empty and time-ordered.
    """
    if not history:
        raise ValueError("history must contain at least one state")
    steps = seconds_to_steps(horizon, dt)
    if len(history) >= predictor.min_history:
        try:
            states = tuple(predictor.extrapolate(history, steps, dt))
            sound = len(states) == steps and _sound(states)
        except Exception:  # a failing model is held like a vehicle without history
            sound = False
        if sound:
            return PredictedTrack(states)
    return PredictedTrack(tuple(HoldPredictor().extrapolate(history, steps, dt)), degraded=True)
