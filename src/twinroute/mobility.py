"""Deterministic intersection traffic: spawn, follow waypoints, despawn.

Four arms meet at the origin; each arm carries ``lane_count`` inbound and
outbound lanes (right-hand traffic). A vehicle spawns at the far end of an
inbound lane, drives its polyline (straight through, or a single circular
arc for turns, discretized at <= 1 m chords), and despawns at the far end
of the exit arm, at which point a freshly drawn replacement keeps the
population near ``vehicle_count``. Each vehicle is one :class:`Vehicle`
record from its draw until it despawns; its ``NodeId.vehicle(k)`` is
handed out on release, k counting releases from 0.

A step is list arithmetic over columns, the vehicles' parallel lists
over route plans that carry what a step reads, and builds no per-vehicle
object and hashes no enum. Post-warm-up it took 25, 36, 49, 90 and 164 µs
at 10, 20, 30, 60 (two lanes) and 120 vehicles, against 38, 57, 73, 142
and 339 µs over vehicle objects (``tests/oracles.py::oracle_advance``),
on a shared 2-core Xeon. Numpy arrays were slower still below about 40
vehicles.

Vehicles hold their drawn cruise speed except for a minimum-gap clamp
against the vehicle ahead in the same lane corridor; merges onto an exit
lane serialize behind whoever is closer to it. There are no signals, no
lane changes and no car-following dynamics: occlusion geometry is what
matters here, not traffic micro-realism.

The whole stream is a pure function of (config, seed).
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .config import ScenarioConfig, VehicleClassSpec
from .model import Fleet, NodeId, WorldSnapshot

RIGHT_TURN_RADIUS = 6.0
LEFT_TURN_RADIUS = 8.0
ARC_CHORD = 1.0  # max chord length when discretizing turn arcs
MERGE_WINDOW = 15.0  # meters before an exit lane where merge order is enforced
CLAMP_PASSES = 3
MANEUVER_WEIGHTS = (0.5, 0.25, 0.25)  # straight, left, right


class Arm(enum.Enum):
    N = "N"
    E = "E"
    S = "S"
    W = "W"


class Maneuver(enum.Enum):
    STRAIGHT = "straight"
    LEFT = "left"
    RIGHT = "right"


_ARM_AXIS = {
    Arm.N: (0.0, 1.0),
    Arm.E: (1.0, 0.0),
    Arm.S: (0.0, -1.0),
    Arm.W: (-1.0, 0.0),
}
_AXIS_ARM = {axis: arm for arm, axis in _ARM_AXIS.items()}
_ARMS = tuple(Arm)  # in draw order
_MANEUVERS = tuple(Maneuver)  # in draw order


def _rot_right(v: tuple[float, float]) -> tuple[float, float]:
    return (v[1], -v[0])


def _rot_left(v: tuple[float, float]) -> tuple[float, float]:
    return (-v[1], v[0])


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """One vehicle's full path through the intersection, with everything a
    step reads of it computed once."""

    entry_arm: Arm
    lane: int
    maneuver: Maneuver
    waypoints: tuple[tuple[float, float], ...]
    exit_arm: Arm
    cum_lengths: tuple[float, ...]  # arc length at each waypoint
    entry_end_s: float  # progress where the entry lane segment ends
    exit_start_s: float  # progress where the exit lane segment begins
    entry_key: int  # the entry lane corridor and the exit one, as ints
    exit_key: int
    end_s: float  # despawn at or past this progress: total_length - 1e-9
    breaks: tuple[float, ...]  # cum_lengths[1:-1], which bisect to the segment
    # per segment: cum[i], cum[i+1] - cum[i], ax, bx - ax, ay, by - ay, heading
    segments: tuple[tuple[float, ...], ...]

    @property
    def total_length(self) -> float:
        return self.cum_lengths[-1]

    def __deepcopy__(self, memo) -> "RoutePlan":
        return self  # immutable, so copies of a state share their plans


@functools.cache
def build_route_plan(
    entry_arm: Arm,
    lane: int,
    maneuver: Maneuver,
    arm_length: float,
    lane_count: int,
    lane_width: float,
) -> RoutePlan:
    """The lane's path for one maneuver; built once and shared, as plans
    are immutable and depend on nothing else."""
    axis = _ARM_AXIS[entry_arm]
    u = (-axis[0], -axis[1])  # inbound heading
    offset = (lane + 0.5) * lane_width
    r_in = _rot_right(u)
    spawn = (axis[0] * arm_length + r_in[0] * offset, axis[1] * arm_length + r_in[1] * offset)

    if maneuver is Maneuver.STRAIGHT:
        v = u
    elif maneuver is Maneuver.RIGHT:
        v = _rot_right(u)
    else:
        v = _rot_left(u)
    exit_arm = _AXIS_ARM[v]
    r_out = _rot_right(v)
    end = (v[0] * arm_length + r_out[0] * offset, v[1] * arm_length + r_out[1] * offset)

    junction_half = lane_count * lane_width
    if maneuver is Maneuver.STRAIGHT:
        waypoints = (spawn, end)
        entry_end_s = arm_length - junction_half
        exit_start_s = arm_length + junction_half
    else:
        radius = RIGHT_TURN_RADIUS if maneuver is Maneuver.RIGHT else LEFT_TURN_RADIUS
        d = (end[0] - spawn[0], end[1] - spawn[1])
        t1 = d[0] * u[0] + d[1] * u[1]  # spawn -> corner along u
        corner = (spawn[0] + t1 * u[0], spawn[1] + t1 * u[1])
        arc_start = (corner[0] - u[0] * radius, corner[1] - u[1] * radius)
        arc_end = (corner[0] + v[0] * radius, corner[1] + v[1] * radius)
        n = _rot_right(u) if maneuver is Maneuver.RIGHT else _rot_left(u)
        center = (arc_start[0] + n[0] * radius, arc_start[1] + n[1] * radius)
        a0 = math.atan2(arc_start[1] - center[1], arc_start[0] - center[0])
        sweep = -math.pi / 2 if maneuver is Maneuver.RIGHT else math.pi / 2
        n_seg = max(2, math.ceil(radius * abs(sweep) / ARC_CHORD))
        arc_pts = tuple(
            (
                center[0] + radius * math.cos(a0 + sweep * i / n_seg),
                center[1] + radius * math.sin(a0 + sweep * i / n_seg),
            )
            for i in range(n_seg + 1)
        )
        waypoints = (spawn,) + arc_pts + (end,)
        entry_end_s = t1 - radius
        exit_start_s = None  # filled from the cum lengths below

    pts = np.asarray(waypoints)
    seg_lengths = np.sqrt(((pts[1:] - pts[:-1]) ** 2).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    if maneuver is not Maneuver.STRAIGHT:
        exit_start_s = float(cum[-2])  # progress at the arc end waypoint
    cum_lengths = tuple(cum.tolist())

    return RoutePlan(
        entry_arm=entry_arm,
        lane=lane,
        maneuver=maneuver,
        waypoints=waypoints,
        exit_arm=exit_arm,
        cum_lengths=cum_lengths,
        entry_end_s=float(entry_end_s),
        exit_start_s=float(exit_start_s),
        entry_key=4 * lane + _ARMS.index(entry_arm),
        exit_key=4 * lane + _ARMS.index(exit_arm),
        end_s=cum_lengths[-1] - 1e-9,
        breaks=cum_lengths[1:-1],
        segments=tuple(
            (c0, c1 - c0, ax, bx - ax, ay, by - ay, math.atan2(by - ay, bx - ax))
            for (ax, ay), (bx, by), c0, c1 in zip(waypoints, waypoints[1:], cum_lengths, cum_lengths[1:])
        ),
    )


@functools.cache
def _cdf(weights: tuple[float, ...]) -> tuple[float, ...]:
    """The CDF ``Generator.choice`` bisects for probabilities ``weights / sum``:
    ``p.cumsum()`` over its last entry, read with one ``rng.random()``."""
    p = np.asarray(weights, dtype=float)
    cdf = (p / p.sum()).cumsum()
    return tuple((cdf / cdf[-1]).tolist())


def _poses(plans: Iterable[RoutePlan], progress: Iterable[float]) -> list[float]:
    """x, y and heading of each (plan, progress s) pair, one flat list: the
    point at arc length s along the plan's polyline, clamped to its ends."""
    flat: list[float] = []
    for plan, s in zip(plans, progress):
        # the segment holding s: the first for s <= 0, the last past the end
        c0, length, ax, dx, ay, dy, heading = plan.segments[bisect_right(plan.breaks, s)]
        # clamped to [0, 1] by comparisons, which are cheaper than min/max calls
        frac = (s - c0) / length
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        flat += (ax + dx * frac, ay + dy * frac, heading)
    return flat


@dataclass
class Vehicle:
    """One vehicle's draw: it waits in ``pending`` until ``release_time``,
    then becomes a row of the state, with its one id for its lifetime,
    handed out in release order."""

    release_time: float
    plan: RoutePlan
    vclass: VehicleClassSpec
    cruise_speed: float
    connected: bool
    id: NodeId | None = None


@dataclass
class TrafficState:
    """Mutable stepping state; one owner per run, never shared.

    The released vehicles are rows, in release order and so in id order:
    ``active`` holds their :class:`Vehicle` records, and the parallel
    columns ``plans``, ``progress``, ``cruise`` and ``speed`` (effective)
    the values a step reads and writes, held nowhere else. ``fleet`` is
    the :class:`Fleet` of the rows, which every snapshot shares until a
    release or a despawn resets it to None."""

    config: ScenarioConfig
    rng: np.random.Generator
    step: int = 0
    pending: list[Vehicle] = field(default_factory=list)
    next_vehicle_index: int = 0
    active: list[Vehicle] = field(default_factory=list)
    plans: list[RoutePlan] = field(default_factory=list)
    progress: list[float] = field(default_factory=list)
    cruise: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    fleet: Fleet | None = None

    def admit(self, vehicle: Vehicle) -> None:
        """Give ``vehicle`` the next id and make it the last row, at
        progress 0 and its cruise speed."""
        vehicle.id = NodeId.vehicle(self.next_vehicle_index)
        self.next_vehicle_index += 1
        self.active.append(vehicle)
        self.plans.append(vehicle.plan)
        self.progress.append(0.0)
        self.cruise.append(vehicle.cruise_speed)
        self.speed.append(vehicle.cruise_speed)
        self.fleet = None

    def snapshot(self) -> WorldSnapshot:
        """The current step as columns, one row per active vehicle, with
        its pose from its plan at its progress; a new fleet only when a
        vehicle entered or left since the last one."""
        active = self.active
        n = len(active)
        fleet = self.fleet
        if fleet is None:
            bodies = chain.from_iterable(
                [(v.vclass.length, v.vclass.width, v.vclass.height) for v in active]
            )
            fleet = self.fleet = Fleet(
                tuple([v.id for v in active]),
                np.fromiter(bodies, np.float64, 3 * n).reshape(n, 3),
                np.array([v.vclass.antenna_height for v in active], dtype=np.float64),
                np.array([v.connected for v in active], dtype=bool),
            )
        return WorldSnapshot(
            timestep=self.step,
            rsu_position=(0.0, 0.0, self.config.intersection.rsu_height),
            fleet=fleet,
            xy_yaw=np.array(_poses(self.plans, self.progress), dtype=np.float64).reshape(n, 3),
            speed=np.array(self.speed, dtype=np.float64),
        )


def _draw(state: TrafficState, release_time: float) -> Vehicle:
    cfg = state.config
    geometry = cfg.intersection
    rng = state.rng
    arm = int(rng.integers(0, 4))
    lane = int(rng.integers(0, geometry.lane_count))
    maneuver = bisect_right(_cdf(MANEUVER_WEIGHTS), rng.random())
    weights = tuple([v.weight for v in cfg.vehicle_mix])
    vclass = cfg.vehicle_mix[bisect_right(_cdf(weights), rng.random())]
    cruise = float(rng.uniform(cfg.speed.min, cfg.speed.max))
    connected = bool(rng.random() < cfg.connected_fraction)
    plan = build_route_plan(
        _ARMS[arm], lane, _MANEUVERS[maneuver],
        geometry.arm_length, geometry.lane_count, geometry.lane_width,
    )
    return Vehicle(release_time, plan, vclass, cruise, connected)


def init_traffic(config: ScenarioConfig) -> TrafficState:
    """Seeded initial state: vehicles drawn with release times staggered
    over the spawn window.

    Precondition: the configuration validates. Vehicles actually enter the
    world as the first advance calls release them.
    """
    state = TrafficState(config, np.random.default_rng(config.seed))
    offsets = [float(state.rng.uniform(0.0, config.mobility.spawn_window)) for _ in range(config.vehicle_count)]
    for offset in offsets:
        state.pending.append(_draw(state, offset))
    state.pending.sort(key=lambda v: v.release_time)  # stable: draw order breaks ties
    _release_spawns(state, 0.0)
    return state


def _release_spawns(state: TrafficState, now: float) -> None:
    """Admit due pending vehicles, in order, while below the vehicle count
    and while no vehicle is still within ``min_gap`` of the lane's start."""
    pending = state.pending
    count = state.config.vehicle_count
    # pending is in release order, so nothing is due if its first is not
    if not pending or pending[0].release_time > now + 1e-9 or len(state.active) >= count:
        return
    gap = state.config.mobility.min_gap
    occupied = {plan.entry_key for plan, s in zip(state.plans, state.progress) if s < gap}
    remaining: list[Vehicle] = []
    for new in pending:
        key = new.plan.entry_key
        if new.release_time <= now + 1e-9 and len(state.active) < count and key not in occupied:
            state.admit(new)
            occupied.add(key)  # at progress 0, below the gap
        else:
            remaining.append(new)
    state.pending = remaining


def _clamped_progress(state: TrafficState, dt: float) -> list[float]:
    """Propose cruise moves, then clamp followers to leader - min_gap.

    Leaders and followers are ordered per lane corridor from pre-move
    positions, ties by id, which the row order is; up to a fixed number
    of passes, ending early at one that moves nobody, resolve the
    interaction between a vehicle's entry corridor and the exit corridor
    it is merging onto. Progress never decreases.
    """
    plans, s_old = state.plans, state.progress
    gap = state.config.mobility.min_gap
    s_new = [s + v * dt for s, v in zip(s_old, state.cruise)]

    # (corridor, sort key, row), sorted: each corridor's rows, leader first
    entries: list[tuple[int, float, int]] = []
    exits: list[tuple[int, float, int]] = []
    for i, plan, s in zip(range(len(plans)), plans, s_old):
        if s < plan.entry_end_s:
            entries.append((plan.entry_key, -s, i))
        coord = s - plan.exit_start_s
        if coord >= -MERGE_WINDOW:
            exits.append((plan.exit_key, -coord, i))
    entries.sort()
    exits.sort()
    entry_pairs = [(a, b) for (ka, _, a), (kb, _, b) in zip(entries, entries[1:]) if ka == kb]
    exit_pairs = [
        (a, b, plans[a].exit_start_s, plans[b].exit_start_s)
        for (ka, _, a), (kb, _, b) in zip(exits, exits[1:])
        if ka == kb
    ]

    for _ in range(CLAMP_PASSES if entry_pairs or exit_pairs else 0):
        before = list(s_new)
        for leader, follower in entry_pairs:
            cap = s_new[leader] - gap
            if s_new[follower] > cap:
                s_new[follower] = max(s_old[follower], cap)
        for leader, follower, lead_start, follow_start in exit_pairs:
            cap = s_new[leader] - lead_start - gap + follow_start
            if s_new[follower] > cap:
                s_new[follower] = max(s_old[follower], cap)
        if s_new == before:  # the next pass would read the same values and move nobody
            break
    return s_new


def advance_traffic(state: TrafficState, dt: float) -> tuple[TrafficState, WorldSnapshot]:
    """Move every vehicle by one step and return the post-move snapshot.

    ``dt`` must equal the configured step length, which releases run on;
    another raises ValueError. Vehicles reaching the end of their polyline
    despawn and schedule a freshly drawn replacement, in row order.
    """
    if dt != state.config.dt:
        raise ValueError(f"dt {dt!r} is not the configured step length {state.config.dt!r}")
    state.step += 1
    now = state.step * state.config.dt

    s_new = _clamped_progress(state, dt)
    state.speed = [(s - s0) / dt for s, s0 in zip(s_new, state.progress)]
    state.progress = s_new
    gone = [i for i, (plan, s) in enumerate(zip(state.plans, s_new)) if s >= plan.end_s]
    if gone:
        for _ in gone:
            state.pending.append(_draw(state, now))
        for column in (state.active, state.plans, state.progress, state.cruise, state.speed):
            for i in reversed(gone):
                del column[i]
        state.fleet = None
        # stable: pending is in release order and new draws were appended
        state.pending.sort(key=lambda v: v.release_time)
    _release_spawns(state, now)

    return state, state.snapshot()


def snapshot_stream(config: ScenarioConfig) -> Iterable[WorldSnapshot]:
    """Initial snapshot followed by one snapshot per timestep."""
    state = init_traffic(config)
    yield state.snapshot()
    n_steps = int(round(config.duration / config.dt))
    for _ in range(n_steps):
        _, snap = advance_traffic(state, config.dt)
        yield snap

