"""The snapshot trace format: one writer and one parser for its rows.

A trace row is ``timestep,sim_time,id,connected,x,y,heading,speed``,
optionally followed by the body columns
``length,width,height,antenna_height``; ``id`` is the vehicle index k of
``NodeId.vehicle(k)`` and ``connected`` is 0 or 1. Rows cross the program
boundary in two places: trace files, written by :func:`tee_trace` and
read back by :func:`read_trace`, and the learned predictor's exchange
with its model process. Both write rows with :func:`trace_row` and parse
them with :func:`parse_row`.
"""

from __future__ import annotations

import math
from typing import IO, TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .model import Fleet, NodeId, Point3, VehicleState, WorldSnapshot

if TYPE_CHECKING:
    from .config import ScenarioConfig

TRACE_COLUMNS = ("timestep", "sim_time", "id", "connected", "x", "y", "heading", "speed")
BODY_COLUMNS = ("length", "width", "height", "antenna_height")
TRACE_HEADER = ",".join(TRACE_COLUMNS + BODY_COLUMNS) + "\n"
# the largest |x| or |y| a trace may hold: for two such points the graph
# builder's squared ground distance dx*dx + dy*dy stays at most 2**1023,
# while coordinates of about 1.3e154 m could overflow it to inf. No body
# column may exceed it either, so an antenna's dz*dz adds at most about
# 2**1020 to that sum, which stays finite
COORDINATE_BOUND = 2.0**510

# the columns parse_row reads as floats, in the order it checks them
_NUMBERS = (TRACE_COLUMNS[1],) + TRACE_COLUMNS[4:]
_WIDE_NUMBERS = _NUMBERS + BODY_COLUMNS


def trace_row(timestep: int, dt: float, index: int, connected: bool, *numbers: float) -> str:
    """One row, newline included: the clock ``timestep * dt``, the vehicle
    index, the flag as 0/1, then ``numbers`` (x, y, heading, speed and
    optionally the body columns) in their shortest round-trip form."""
    head = (str(timestep), repr(timestep * dt), str(index), str(int(connected)))
    return ",".join(head + tuple(map(repr, numbers))) + "\n"


def _finite(name: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text}")
    return value


def parse_row(parts: list[str], wide: bool) -> tuple[int, int, bool, list[float]]:
    """(timestep, index, connected, numbers) of one split row, ``wide`` if
    it carries the body columns. ``numbers`` are sim_time, x, y, heading,
    speed and the body columns, in that order.

    Checks, in this order: the column count, that each number is finite
    (naming its column), the 0/1 flag, the int index and the int timestep;
    the first that fails raises ValueError. Ranges, such as a speed >= 0,
    are the caller's to check.
    """
    names = _WIDE_NUMBERS if wide else _NUMBERS
    expected = len(names) + 3
    if len(parts) != expected:
        raise ValueError(f"expected {expected} columns, got {len(parts)}")
    numbers = list(map(_finite, names, (parts[1], *parts[4:])))
    if parts[3] not in ("0", "1"):
        raise ValueError(f"connected must be 0 or 1, got {parts[3]!r}")
    index = int(parts[2])
    return int(parts[0]), index, parts[3] == "1", numbers


def tee_trace(
    snapshots: Iterable[WorldSnapshot], out: IO[str], dt: float
) -> Iterator[WorldSnapshot]:
    """Yield each snapshot after writing its trace rows to ``out``, so a run
    can record the stream it consumes without holding it.

    One row per (timestep, vehicle); a step with no vehicles is one
    ``timestep,sim_time`` marker row, so a replay starts where the run did.
    Every row's ``sim_time`` is ``timestep * dt``.
    """
    out.write(TRACE_HEADER)
    for snap in snapshots:
        ts, fleet = snap.timestep, snap.fleet
        if not fleet.ids:
            out.write(f"{ts},{ts * dt!r}\n")
        rows = zip(
            fleet.ids, fleet.connected.tolist(), snap.xy_yaw.tolist(), snap.speed.tolist(),
            fleet.bodies.tolist(), fleet.antenna_height.tolist(),
        )
        for vid, connected, pose, speed, body, antenna in rows:
            out.write(trace_row(ts, dt, vid.index, connected, *pose, speed, *body, antenna))
        yield snap


class TraceError(ValueError):
    """A trace that cannot be replayed; a bad row's error names its line."""


def _step_snapshot(
    timestep: int, rsu: Point3, fleet: Fleet | None, vehicles: list[VehicleState]
) -> WorldSnapshot:
    """The snapshot of one step's checked rows. It shares ``fleet``, the
    last step's, when that holds the same ids: a vehicle keeps the body
    and flag of its first row, so equal ids make an equal fleet."""
    if fleet is None or fleet.ids != tuple(v.id for v in vehicles):
        fleet = Fleet.from_vehicles(vehicles)
    rows = np.array([(v.position[0], v.position[1], v.heading, v.speed) for v in vehicles])
    rows = rows.reshape(len(vehicles), 4)
    return WorldSnapshot(timestep, rsu, fleet, rows[:, :3], rows[:, 3])


def read_trace(lines: Iterable[str], config: ScenarioConfig) -> Iterator[WorldSnapshot]:
    """Yield each step's snapshot once its rows are read, so a replay
    under ``config`` holds one step of the trace.

    A header, if any, is the first non-blank line and names the
    ``TRACE_COLUMNS``, or those and the ``BODY_COLUMNS``, whose values the
    rows then carry; otherwise every vehicle gets the body of
    ``config.vehicle_mix[0]``. Every row's ``sim_time`` must be
    ``timestep * config.dt``, so a trace recorded at another step length
    is not scored on the wrong clock. Timesteps must be grouped and
    consecutive. A ``timestep,sim_time`` marker row is a step with no
    vehicles and must be its step's only row. No |x| or |y| may exceed
    ``COORDINATE_BOUND`` (2**510 m), and no body column above it, so no
    squared distance overflows. A vehicle is in every step from its first
    row to its last: one that leaves may not return. No two vehicles of
    one step
    may stand at the same (x, y), no antenna at the RSU's point, and no
    two connected vehicles' antennas of one step at one point (a squared
    distance of 0.0, summed as the graph builder sums it); a vehicle keeps
    the body and ``connected`` flag of its first row, and no line holds a
    byte that is not UTF-8, which ``errors="surrogateescape"`` decodes to
    a lone surrogate. Each error is a TraceError naming the 1-based line.
    A trace with no connected vehicle after its first snapshot, which only
    seeds the history, ends in a TraceError too: it has nothing to score.
    Consecutive steps with the same ids share one fleet object.
    """
    dt = config.dt
    body = config.vehicle_mix[0]
    default_body = ((body.length, body.width, body.height), body.antenna_height)
    headers = {",".join(TRACE_COLUMNS): False, TRACE_HEADER.rstrip("\n"): True}
    current_ts: int | None = None
    bucket: list[VehicleState] = []
    fleet: Fleet | None = None  # the last yielded step's
    seen: set[int] = set()  # the current step's vehicles
    previous: set[int] = set()  # the last step's
    ids: dict[int, NodeId] = {}
    lifetimes: dict[int, tuple[int, tuple]] = {}  # index -> first line, body and flag
    spots: dict[tuple[float, float], int] = {}
    antennas: list[tuple[int, float, float, float]] = []  # the step's connected ones
    rsu = (0.0, 0.0, config.intersection.rsu_height)
    wide = False  # the rows carry the body columns
    marked = False  # the current step is a marker row
    started = False  # a non-blank line was read
    steps = 0
    scored = False  # a step after the first has a connected vehicle

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
                raise ValueError("the line holds a byte that is not UTF-8")
            if line.startswith("timestep"):
                if started or line not in headers:
                    raise ValueError("a header must be the first line and name the columns in order")
                wide, started = headers[line], True
                continue
            started = True
            parts = line.split(",")
            if len(parts) == 2:  # marker row: a step with no vehicles
                ts, sim_time, vehicle = int(parts[0]), _finite("sim_time", parts[1]), None
            else:
                ts, index, connected, numbers = parse_row(parts, wide)
                sim_time, x, y, heading, speed, *rest = numbers
                dimensions, antenna = (tuple(rest[:3]), rest[3]) if wide else default_body
                node = ids.get(index) or ids.setdefault(index, NodeId.vehicle(index))
                vehicle = VehicleState(node, (x, y, 0.0), heading, speed, dimensions, antenna, connected)
            if not math.isclose(sim_time, ts * dt):
                raise ValueError(
                    f"timestep {ts} has sim_time {sim_time!r},"
                    f" not timestep * dt = {ts * dt!r} (dt {dt!r})"
                )
            if ts == current_ts and (marked or vehicle is None):
                raise ValueError(f"timestep {ts} has a marker row and other rows")
            if ts != current_ts:
                if current_ts is not None:
                    if ts != current_ts + 1:
                        raise ValueError(f"timestep {ts} does not follow {current_ts}")
                    snap = _step_snapshot(current_ts, rsu, fleet, bucket)
                    fleet = snap.fleet
                    yield snap
                bucket, previous, seen, spots, antennas = [], seen, set(), {}, []
                current_ts, marked = ts, vehicle is None
                steps += 1
            if vehicle is None:
                continue
            if index in seen:
                raise ValueError(f"vehicle {index} repeats in timestep {ts}")
            if index in lifetimes and index not in previous:
                raise ValueError(f"vehicle {index} left before timestep {ts} and returns")
            traits = (vehicle.dimensions, vehicle.antenna_height, vehicle.connected)
            first, known = lifetimes.setdefault(index, (lineno, traits))
            if known != traits:
                raise ValueError(
                    f"vehicle {index} has a body or connected flag other than on line {first}"
                )
            if abs(x) > COORDINATE_BOUND or abs(y) > COORDINATE_BOUND:
                name, value = ("x", x) if abs(x) > COORDINATE_BOUND else ("y", y)
                raise ValueError(f"|{name}| must be at most 2**510 m, got {value!r}")
            if wide and max(rest) > COORDINATE_BOUND:
                value = max(rest)
                name = BODY_COLUMNS[rest.index(value)]
                raise ValueError(f"{name} must be at most 2**510 m, got {value!r}")
            spot = (x, y)
            if spot in spots:
                raise ValueError(
                    f"vehicles {spots[spot]} and {index} share position {spot} in timestep {ts}"
                )
            # the graph builder's sum of squares: it underflows to 0.0 for
            # an antenna within about 1e-154 m of the RSU's point
            dx, dy, dz = x - rsu[0], y - rsu[1], antenna - rsu[2]
            if dx * dx + dy * dy + dz * dz == 0.0:
                raise ValueError(f"the antenna of vehicle {index} is at the RSU's point {rsu}")
            if connected:
                for other, ox, oy, oz in antennas:
                    dx, dy, dz = x - ox, y - oy, antenna - oz
                    if dx * dx + dy * dy + dz * dz == 0.0:
                        raise ValueError(
                            f"the antennas of vehicles {other} and {index} coincide in timestep {ts}"
                        )
                antennas.append((index, x, y, antenna))
        except ValueError as exc:
            raise TraceError(f"trace line {lineno}: {exc}: {line!r}") from None
        bucket.append(vehicle)
        seen.add(index)
        spots[spot] = index
        scored = scored or (connected and steps > 1)
    if current_ts is not None:
        yield _step_snapshot(current_ts, rsu, fleet, bucket)
    if not scored:
        raise TraceError(
            f"nothing to score: {steps} snapshot(s), and none after the first"
            " (which only seeds the history) has a connected vehicle"
        )
