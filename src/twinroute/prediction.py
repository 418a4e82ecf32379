"""Pluggable trajectory prediction.

Every predictor consumes a vehicle's recent state history (oldest first)
and emits one pose, a ``(position, heading, speed)`` triple, per timestep
across the requested horizon. A forecast is these poses alone: the
vehicle's id, body and ``connected`` flag are those of its last observed
state, so no forecast step is rebuilt as a ``VehicleState``. The
analytic predictors are the reference implementations; a learned model
plugs in through a subprocess text exchange using the mobility trace
schema, keeping ML frameworks out of this package.

Learned-model contract: the command receives history rows on stdin as
``timestep,sim_time,id,connected,x,y,heading,speed`` lines (no header)
followed by two extra argv values ``<horizon_steps> <dt>``, and must print
exactly ``horizon_steps`` rows in the same schema, timesteps continuing
from the last input row, each with the id that was sent, finite x, y,
heading and speed, and a speed >= 0; any other output raises RuntimeError.
A model still running after ``MODEL_TIMEOUT_S`` seconds is killed and
raises ``subprocess.TimeoutExpired``.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import Protocol, Sequence

from .model import NodeId, Pose, VehicleState, seconds_to_steps

MODEL_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class PredictedTrack:
    """Forecast poses of one vehicle.

    ``states[k]`` is the vehicle's pose ``k + 1`` steps after its last
    observed state. ``degraded`` marks tracks produced by the hold
    fallback because the requested predictor lacked history or failed.
    """

    vehicle: NodeId
    states: tuple[Pose, ...]
    degraded: bool = False


class TrajectoryPredictor(Protocol):
    """Anything that can extrapolate a state history."""

    kind: str
    min_history: int

    def extrapolate(self, history: Sequence[VehicleState], steps: int, dt: float) -> list[Pose]:
        """Return ``steps`` (position, heading, speed) triples."""
        ...


class HoldPredictor:
    kind = "hold"
    min_history = 1

    def extrapolate(self, history, steps, dt):
        last = history[-1]
        return [(last.position, last.heading, last.speed)] * steps


class ConstantVelocityPredictor:
    kind = "constant_velocity"
    min_history = 2

    def extrapolate(self, history, steps, dt):
        last = history[-1]
        vx = last.speed * math.cos(last.heading)
        vy = last.speed * math.sin(last.heading)
        x, y, z = last.position
        out = []
        for j in range(1, steps + 1):
            out.append(((x + vx * j * dt, y + vy * j * dt, z), last.heading, last.speed))
        return out


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
        x, y, z = last.position
        v = last.speed
        h = last.heading
        radius = v / omega
        out = []
        for j in range(1, steps + 1):
            tau = j * dt
            px = x + radius * (math.sin(h + omega * tau) - math.sin(h))
            py = y - radius * (math.cos(h + omega * tau) - math.cos(h))
            out.append(((px, py, z), _wrap_angle(h + omega * tau), v))
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
        last = history[-1]
        lines = []
        for i, s in enumerate(history):
            ts = i  # relative numbering; absolute timesteps are not known here
            lines.append(
                f"{ts},{ts * dt!r},{s.id},{int(s.connected)},"
                f"{s.position[0]!r},{s.position[1]!r},{s.heading!r},{s.speed!r}"
            )
        proc = subprocess.run(
            [*self.command, str(steps), repr(dt)],
            input="\n".join(lines) + "\n",
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
        for j, ln in enumerate(rows, start=1):
            try:
                x, y, heading, speed = _forecast_row(ln, str(last.id), len(history) - 1 + j)
            except ValueError as exc:
                raise RuntimeError(f"learned predictor row {j}: {exc}: {ln!r}") from None
            out.append(((x, y, last.position[2]), heading, speed))
        return out


def _forecast_row(line: str, vehicle: str, timestep: int) -> list[float]:
    """x, y, heading, speed of one model output row, checked against what was sent."""
    parts = line.split(",")
    if len(parts) != 8:
        raise ValueError(f"expected 8 columns, got {len(parts)}")
    if parts[2] != vehicle:
        raise ValueError(f"id {parts[2]!r}, expected {vehicle!r}")
    if int(parts[0]) != timestep:
        raise ValueError(f"timestep {parts[0]}, expected {timestep}")
    values = [float(text) for text in parts[4:]]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("x, y, heading and speed must be finite")
    if values[3] < 0:
        raise ValueError(f"speed must be >= 0, got {parts[7]}")
    return values


PREDICTORS: dict[str, type] = {
    cls.kind: cls
    for cls in (HoldPredictor, ConstantVelocityPredictor, ConstantTurnRatePredictor, LearnedPredictor)
}


def make_predictor(kind: str, learned_command: Sequence[str] | None = None) -> TrajectoryPredictor:
    if kind not in PREDICTORS:
        raise ValueError(f"unknown predictor kind: {kind!r}")
    return LearnedPredictor(learned_command or ()) if kind == "learned" else PREDICTORS[kind]()


def predict(
    history: Sequence[VehicleState],
    horizon: float,
    dt: float,
    predictor: TrajectoryPredictor,
) -> PredictedTrack:
    """Forecast one vehicle across the horizon; one pose per dt.

    This is the one fallback of the predictive path: when the predictor
    lacks history, raises, or returns the wrong number of poses, the
    vehicle holds its last observed pose and the track is marked
    degraded. The history must be non-empty and time-ordered.
    """
    if not history:
        raise ValueError("history must contain at least one state")
    steps = seconds_to_steps(horizon, dt)
    last = history[-1]
    if len(history) >= predictor.min_history:
        try:
            states = tuple(predictor.extrapolate(history, steps, dt))
        except Exception:  # a failing model is held like a vehicle without history
            states = ()
        if len(states) == steps:
            return PredictedTrack(last.id, states)
    held = (last.position, last.heading, last.speed)
    return PredictedTrack(last.id, (held,) * steps, degraded=True)
