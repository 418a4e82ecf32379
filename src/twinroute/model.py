"""Shared domain types for the intersection V2X routing simulator.

Conventions used throughout the package:

- World frame: x east, y north, z up, meters. The intersection center is
  the origin; the RSU mast stands at (0, 0) with its antenna at the apex.
- Headings are radians, 0 along +x, counter-clockwise positive.
- Time is a fixed-step integer counter ``timestep``; a snapshot stores no
  clock of its own. The simulated time ``timestep * dt`` seconds appears
  only in traces, whose reader checks it on every row. Schedules
  expressed in seconds (update intervals, prediction intervals) convert
  to whole steps, rounding down, minimum one step.
- A run reads its snapshots as a stream, from the traffic model or a
  trace, and holds only the few steps of history it needs.
- A vehicle's id, body and ``connected`` flag are fixed from the step it
  enters until the step it leaves, so a snapshot holds only poses and
  speeds, and its :class:`Fleet` holds the rest. The traffic model and
  the trace reader hand one fleet object to every snapshot of one vehicle
  set.
- Every type in this module is an immutable value; instances can be shared
  freely across threads.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Point3 = tuple[float, float, float]
# (x, y, heading) of one vehicle at one step: one row of a snapshot's xy_yaw
Pose = tuple[float, float, float]


class NodeId(int):
    """Identity of a network node: the single RSU or one vehicle.

    Vehicle indices are unique within a run and never reused after the
    vehicle despawns. A node id is an int whose value codes its identity,
    ``(index << 1) | is_vehicle``: the RSU is 0 and vehicle k is 2k + 1.
    Make ids with :meth:`rsu` and :meth:`vehicle`; a code that names no
    node, even and not 0, negative, or not below 2**63, raises
    ValueError. Hashing, ordering and pickling are int's; the first two
    run in C. The RSU sorts before all
    vehicles, then vehicles by index; routing tie-breaks rely on this order
    being total. Equality is strict: a node id never equals a plain int.
    The traffic model creates one id per vehicle lifetime, so the dicts
    keyed by node ids match by identity. ``repr`` is the call that makes
    the id, ``NodeId.vehicle(7)`` or ``NodeId.rsu()``.
    """

    __slots__ = ()

    def __new__(cls, code: int) -> "NodeId":
        code = int(code)
        if code and not (code & 1 and 0 < code < 2**63):
            raise ValueError(
                f"node code {code} names no node: it must be 0, or odd and below 2**63"
            )
        return super().__new__(cls, code)

    @staticmethod
    def rsu() -> "NodeId":
        return _RSU

    @staticmethod
    def vehicle(index: int) -> "NodeId":
        if index < 0:
            raise ValueError(f"vehicle index must be non-negative, got {index}")
        if index >= 2**62:  # the node code 2k + 1 must fit an int64
            raise ValueError(f"vehicle index must be below 2**62, got {index}")
        return NodeId((index << 1) | 1)

    @property
    def index(self) -> int:
        return self >> 1

    def __eq__(self, other: object) -> bool:
        return type(other) is NodeId and int.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not NodeId or int.__ne__(self, other)

    __hash__ = int.__hash__

    def __bool__(self) -> bool:
        return True  # the RSU's code is 0, but every node id is a node

    def __repr__(self) -> str:
        return f"NodeId.vehicle({self >> 1})" if self & 1 else "NodeId.rsu()"

    def __str__(self) -> str:
        return f"v{self >> 1}" if self & 1 else "rsu"

    __format__ = object.__format__  # "{}" prints str(); int format specs do not apply


_RSU = NodeId(0)


@dataclass(frozen=True, slots=True)
class VehicleState:
    """Pose and body of one vehicle at one timestep.

    ``position`` is the ground-contact center of the vehicle (z = 0); the
    single isotropic antenna sits ``antenna_height`` meters above it.
    ``connected`` marks a CAV and is immutable over the vehicle's lifetime.
    ``speed`` is the effective speed over the last step (after any
    gap-keeping clamp), which is what a twin observing displacement sees.
    Every number must be finite; a non-finite one raises ValueError naming
    its field.
    """

    id: NodeId
    position: Point3
    heading: float
    speed: float
    dimensions: tuple[float, float, float]  # length, width, height
    antenna_height: float
    connected: bool

    def __post_init__(self) -> None:
        if type(self.id) is not NodeId or not self.id & 1:
            raise ValueError("VehicleState id must be a vehicle node")
        for name in ("position", "heading", "speed", "dimensions", "antenna_height"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        if min(self.dimensions) <= 0:
            raise ValueError(f"dimensions must be positive, got {self.dimensions}")
        height = self.dimensions[2]
        if not (0 < self.antenna_height <= height + 1.0):
            raise ValueError(
                f"antenna_height {self.antenna_height} outside (0, height + 1]"
            )


@dataclass(frozen=True, eq=False)
class Fleet:
    """The vehicle set of a run of snapshots: what stays fixed from the
    step a vehicle enters until the step one leaves (the shared state of
    a Flyweight: Gamma, Helm, Johnson & Vlissides, *Design Patterns*,
    1994).

    Columns, one row per vehicle: ``ids``, the ``(V, 3)`` ``bodies``
    (length, width, height), ``antenna_height`` and the ``connected``
    mask. The constructor makes the arrays read-only, checks their shapes,
    that the ids are distinct, and every row's id, body and antenna as
    :class:`VehicleState` checks them, once per set. Every snapshot of one
    vehicle set shares one fleet; values derived from it are computed on
    first read and held here. Equality is by value, an identical fleet
    first.
    """

    ids: tuple[NodeId, ...]
    bodies: np.ndarray
    antenna_height: np.ndarray
    connected: np.ndarray

    @classmethod
    def from_vehicles(cls, vehicles: Sequence[VehicleState]) -> "Fleet":
        """The fleet whose rows are the ids, bodies, antennas and flags of
        ``vehicles``, in order."""
        flat = chain.from_iterable([(*v.dimensions, v.antenna_height) for v in vehicles])
        rows = np.fromiter(flat, np.float64, 4 * len(vehicles)).reshape(len(vehicles), 4)
        return cls(
            tuple(v.id for v in vehicles), rows[:, :3], rows[:, 3],
            np.array([v.connected for v in vehicles], dtype=bool),
        )

    def __post_init__(self) -> None:
        for column in self._columns():
            column.setflags(write=False)
        ids = self.ids
        n = len(ids)
        if [c.shape for c in self._columns()] != [(n, 3), (n,), (n,)]:
            raise ValueError(f"snapshot columns must hold one row per id ({n})")
        if len(set(ids)) != n:
            raise ValueError("duplicate vehicle ids in snapshot")
        antenna, bodies = self.antenna_height, self.bodies
        valid = (
            ((antenna > 0) & (antenna <= bodies[:, 2] + 1.0)).all()
            and np.isfinite(bodies).all()
            and bodies.min(initial=1.0) > 0
            and all(type(i) is NodeId and i & 1 for i in ids)
        )
        if not valid:  # a row's own check raises its error, at a pose that passes
            for row in range(n):
                VehicleState(
                    ids[row], (0.0, 0.0, 0.0), 0.0, 0.0, tuple(bodies[row].tolist()),
                    antenna.item(row), self.connected.item(row),
                )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.bodies, self.antenna_height, self.connected

    @functools.cached_property
    def row(self) -> dict[NodeId, int]:
        """Each vehicle's row; shared by every reader, so read-only by contract."""
        return dict(zip(self.ids, range(len(self.ids))))

    @functools.cached_property
    def node_rows(self) -> np.ndarray:
        """The rows of the connected vehicles in id order: the vehicle
        nodes of a graph, which follow the RSU."""
        ids = self.ids
        rows = np.array(sorted(np.flatnonzero(self.connected).tolist(), key=ids.__getitem__), np.intp)
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """The ids' int codes, one int64 per row."""
        codes = np.fromiter(self.ids, np.int64, len(self.ids))
        codes.setflags(write=False)
        return codes

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Fleet:
            return NotImplemented
        return self.ids == other.ids and all(map(np.array_equal, self._columns(), other._columns()))

    def __hash__(self) -> int:
        return hash(self.ids)

    def __reduce__(self):
        # through the constructor, so a copy's columns are read-only too
        return Fleet, (self.ids, *self._columns())


@dataclass(frozen=True, eq=False)
class WorldSnapshot:
    """All vehicles plus the RSU at one timestep: the twin's view.

    The vehicles are rows: the :class:`Fleet` ``fleet`` holds their ids,
    bodies, antennas and connected mask, and the snapshot the per-step
    columns, the ``(V, 3)`` ``xy_yaw`` poses (x, y, heading) and the
    ``speed`` array. Snapshots of one vehicle set share one fleet object,
    so a step checks and moves only poses and speeds. ``xy_yaw`` is the
    layout of one step of a forecast, so a run of snapshots stacks into
    the ``(S, V, 3)`` poses :func:`~twinroute.topology.build_topologies`
    reads. The constructor makes the arrays read-only, checks their shapes
    against the fleet, that both are finite and every speed ``>= 0``; a
    failing row raises the error :class:`VehicleState` gives. Vehicles
    stand on the ground (z = 0). :meth:`vehicle` builds the state of one
    row, and ``vehicles`` those of all rows on its first read; the graph
    builder and the planner read the columns. :meth:`from_vehicles` packs
    states into columns and a new fleet. Equality is by value: timestep,
    RSU position, fleet and both columns.
    """

    timestep: int
    rsu_position: Point3
    fleet: Fleet
    xy_yaw: np.ndarray
    speed: np.ndarray

    @classmethod
    def from_vehicles(
        cls, timestep: int, vehicles: Iterable[VehicleState], rsu_position: Point3
    ) -> "WorldSnapshot":
        """The snapshot whose rows are ``vehicles``, in order, on a new fleet."""
        vehicles = tuple(vehicles)
        if any(v.position[2] != 0.0 for v in vehicles):
            raise ValueError("vehicles must stand on the ground (position z = 0)")
        flat = chain.from_iterable(
            [(v.position[0], v.position[1], v.heading, v.speed) for v in vehicles]
        )
        rows = np.fromiter(flat, np.float64, 4 * len(vehicles)).reshape(len(vehicles), 4)
        return cls(timestep, rsu_position, Fleet.from_vehicles(vehicles), rows[:, :3], rows[:, 3])

    def __post_init__(self) -> None:
        """Make the columns read-only, check their shapes against the
        fleet, and their rows as :class:`VehicleState` checks a state."""
        xy_yaw, speed = self.xy_yaw, self.speed
        xy_yaw.setflags(write=False)
        speed.setflags(write=False)
        n = len(self.fleet.ids)
        if xy_yaw.shape != (n, 3) or speed.shape != (n,):
            raise ValueError(f"snapshot columns must hold one row per id ({n})")
        if not (np.isfinite(xy_yaw).all() and np.isfinite(speed).all() and (speed >= 0).all()):
            for row in range(n):  # a row's own check raises its error
                self.vehicle(row)

    def vehicle(self, row: int) -> VehicleState:
        """The state of the vehicle in ``row``."""
        fleet = self.fleet
        x, y, heading = self.xy_yaw[row].tolist()
        return VehicleState(
            fleet.ids[row],
            (x, y, 0.0),
            heading,
            self.speed.item(row),
            tuple(fleet.bodies[row].tolist()),
            fleet.antenna_height.item(row),
            fleet.connected.item(row),
        )

    @functools.cached_property
    def vehicles(self) -> tuple[VehicleState, ...]:
        """One state per row, built on the first read."""
        return tuple(map(self.vehicle, range(len(self.fleet.ids))))

    def __eq__(self, other: object) -> bool:
        if type(other) is not WorldSnapshot:
            return NotImplemented
        return (
            (self.timestep, self.rsu_position) == (other.timestep, other.rsu_position)
            and self.fleet == other.fleet
            and np.array_equal(self.xy_yaw, other.xy_yaw)
            and np.array_equal(self.speed, other.speed)
        )

    def __hash__(self) -> int:
        return hash((self.timestep, self.rsu_position, self.fleet))

    def __reduce__(self):
        # through the constructor, so a copy's columns are read-only too
        return WorldSnapshot, (self.timestep, self.rsu_position, self.fleet, self.xy_yaw, self.speed)


class Strategy(enum.Enum):
    REALTIME = "realtime"
    PREDICTIVE = "predictive"
    CONVENTIONAL = "conventional"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a configuration check: empty means valid.

    Violations are (field path, message) pairs; they are data, not
    exceptions, so callers can render every problem at once.
    """

    violations: tuple[tuple[str, str], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "configuration valid"
        return "\n".join(f"{path}: {msg}" for path, msg in self.violations)


def seconds_to_steps(seconds: float, dt: float) -> int:
    """Convert a schedule length to whole timesteps (floor, minimum 1)."""
    return max(1, int(seconds / dt + 1e-9))


def delay_to_steps(seconds: float, dt: float) -> int:
    """Convert a latency to whole timesteps (floor; zero stays zero)."""
    return max(0, int(seconds / dt + 1e-9))
