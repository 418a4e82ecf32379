"""Deterministic intersection traffic: spawn, follow waypoints, despawn.

Four arms meet at the origin; each arm carries ``lane_count`` inbound and
outbound lanes (right-hand traffic). A vehicle spawns at the far end of an
inbound lane, drives its polyline (straight through, or a single circular
arc for turns, discretized at <= 1 m chords), and despawns at the far end
of the exit arm, at which point a freshly drawn replacement keeps the
population near ``vehicle_count``. Each vehicle is one :class:`Vehicle`
record from its draw until it despawns; its ``NodeId.vehicle(k)`` is
handed out on release, k counting releases from 0.

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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .config import ScenarioConfig, VehicleClassSpec
from .model import NodeId, WorldSnapshot

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


def _rot_right(v: tuple[float, float]) -> tuple[float, float]:
    return (v[1], -v[0])


def _rot_left(v: tuple[float, float]) -> tuple[float, float]:
    return (-v[1], v[0])


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """One vehicle's full path through the intersection."""

    entry_arm: Arm
    lane: int
    maneuver: Maneuver
    waypoints: tuple[tuple[float, float], ...]
    exit_arm: Arm
    cum_lengths: tuple[float, ...]  # arc length at each waypoint
    headings: tuple[float, ...]  # heading of each segment
    entry_end_s: float  # progress where the entry lane segment ends
    exit_start_s: float  # progress where the exit lane segment begins

    @property
    def total_length(self) -> float:
        return self.cum_lengths[-1]

    def pose_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, heading) at arc-length progress ``s`` along the polyline."""
        cum = self.cum_lengths
        i = 0 if s <= 0.0 else bisect_right(cum, s) - 1
        if i > len(cum) - 2:  # at or past the end: the last segment
            i = len(cum) - 2
        ax, ay = self.waypoints[i]
        bx, by = self.waypoints[i + 1]
        # clamped to [0, 1] by comparisons, which are cheaper than min/max calls
        frac = (s - cum[i]) / (cum[i + 1] - cum[i])
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        return (ax + (bx - ax) * frac, ay + (by - ay) * frac, self.headings[i])


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

    return RoutePlan(
        entry_arm=entry_arm,
        lane=lane,
        maneuver=maneuver,
        waypoints=waypoints,
        exit_arm=exit_arm,
        cum_lengths=tuple(cum.tolist()),
        headings=tuple(
            math.atan2(by - ay, bx - ax) for (ax, ay), (bx, by) in zip(waypoints, waypoints[1:])
        ),
        entry_end_s=float(entry_end_s),
        exit_start_s=float(exit_start_s),
    )


@dataclass
class Vehicle:
    """One vehicle from its draw until it despawns: it waits in
    ``pending`` until ``release_time``, then moves to ``active`` with its
    one id for its lifetime, handed out in release order."""

    release_time: float
    plan: RoutePlan
    vclass: VehicleClassSpec
    cruise_speed: float
    connected: bool
    id: NodeId | None = None
    progress: float = 0.0
    effective_speed: float = 0.0


@dataclass
class TrafficState:
    """Mutable stepping state; one owner per run, never shared."""

    config: ScenarioConfig
    rng: np.random.Generator
    step: int
    active: list[Vehicle]
    pending: list[Vehicle]
    next_vehicle_index: int

    def snapshot(self) -> WorldSnapshot:
        """The current step as columns, one row per active vehicle, with
        its pose from :meth:`RoutePlan.pose_at` at its progress."""
        active = self.active
        n = len(active)
        # (x, y, heading) and body triples read as flat runs of floats
        poses = chain.from_iterable([v.plan.pose_at(v.progress) for v in active])
        x, y, heading = np.fromiter(poses, np.float64, 3 * n).reshape(n, 3).T
        bodies = chain.from_iterable(
            [(v.vclass.length, v.vclass.width, v.vclass.height) for v in active]
        )
        return WorldSnapshot(
            timestep=self.step,
            rsu_position=(0.0, 0.0, self.config.intersection.rsu_height),
            ids=tuple([v.id for v in active]),
            x=x,
            y=y,
            heading=heading,
            speed=np.array([v.effective_speed for v in active], dtype=np.float64),
            bodies=np.fromiter(bodies, np.float64, 3 * n).reshape(n, 3),
            antenna_height=np.array([v.vclass.antenna_height for v in active], dtype=np.float64),
            connected=np.array([v.connected for v in active], dtype=bool),
        )


def _draw(state: TrafficState, release_time: float) -> Vehicle:
    cfg = state.config
    geometry = cfg.intersection
    rng = state.rng
    arm = list(Arm)[int(rng.integers(0, 4))]
    lane = int(rng.integers(0, geometry.lane_count))
    maneuver = list(Maneuver)[
        int(rng.choice(3, p=np.asarray(MANEUVER_WEIGHTS) / sum(MANEUVER_WEIGHTS)))
    ]
    weights = np.asarray([v.weight for v in cfg.vehicle_mix], dtype=float)
    vclass = cfg.vehicle_mix[int(rng.choice(len(cfg.vehicle_mix), p=weights / weights.sum()))]
    cruise = float(rng.uniform(cfg.speed.min, cfg.speed.max))
    connected = bool(rng.random() < cfg.connected_fraction)
    return Vehicle(
        release_time=release_time,
        plan=build_route_plan(
            arm, lane, maneuver, geometry.arm_length, geometry.lane_count, geometry.lane_width
        ),
        vclass=vclass,
        cruise_speed=cruise,
        connected=connected,
    )


def init_traffic(config: ScenarioConfig) -> TrafficState:
    """Seeded initial state: vehicles drawn with release times staggered
    over the spawn window.

    Precondition: the configuration validates. Vehicles actually enter the
    world as the first advance calls release them.
    """
    state = TrafficState(
        config=config,
        rng=np.random.default_rng(config.seed),
        step=0,
        active=[],
        pending=[],
        next_vehicle_index=0,
    )
    offsets = [float(state.rng.uniform(0.0, config.mobility.spawn_window)) for _ in range(config.vehicle_count)]
    for offset in offsets:
        state.pending.append(_draw(state, offset))
    state.pending.sort(key=lambda v: v.release_time)  # stable: draw order breaks ties
    _release_spawns(state, 0.0)
    return state


def _release_spawns(state: TrafficState, now: float) -> None:
    """Admit due pending vehicles, in order, while below the vehicle count
    and while no vehicle is still within ``min_gap`` of the lane's start."""
    gap = state.config.mobility.min_gap
    remaining: list[Vehicle] = []
    for new in state.pending:
        arm, lane = new.plan.entry_arm, new.plan.lane
        if (
            new.release_time <= now + 1e-9
            and len(state.active) < state.config.vehicle_count
            and not any(
                v.progress < gap and v.plan.entry_arm is arm and v.plan.lane == lane
                for v in state.active
            )
        ):
            new.id = NodeId.vehicle(state.next_vehicle_index)
            new.effective_speed = new.cruise_speed
            state.active.append(new)
            state.next_vehicle_index += 1
        else:
            remaining.append(new)
    state.pending = remaining


def _clamped_progress(state: TrafficState, dt: float) -> list[float]:
    """Propose cruise moves, then clamp followers to leader - min_gap.

    Leaders and followers are ordered per lane corridor from pre-move
    positions; up to a fixed number of passes, ending early at one that
    moves nobody, resolve the interaction between a vehicle's entry
    corridor and the exit corridor it is merging onto.
    Progress never decreases.
    """
    active = state.active
    gap = state.config.mobility.min_gap
    s_old = [v.progress for v in active]
    s_new = [v.progress + v.cruise_speed * dt for v in active]

    entry_lists: dict[tuple[Arm, int], list[int]] = {}
    exit_lists: dict[tuple[Arm, int], list[int]] = {}
    for i, v in enumerate(active):
        if s_old[i] < v.plan.entry_end_s:
            entry_lists.setdefault((v.plan.entry_arm, v.plan.lane), []).append(i)
        if s_old[i] - v.plan.exit_start_s >= -MERGE_WINDOW:
            exit_lists.setdefault((v.plan.exit_arm, v.plan.lane), []).append(i)
    for lst in entry_lists.values():
        lst.sort(key=lambda i: (-s_old[i], active[i].id))
    for lst in exit_lists.values():
        lst.sort(key=lambda i: (-(s_old[i] - active[i].plan.exit_start_s), active[i].id))

    for _ in range(CLAMP_PASSES):
        before = list(s_new)
        for lst in entry_lists.values():
            for leader, follower in zip(lst, lst[1:]):
                cap = s_new[leader] - gap
                if s_new[follower] > cap:
                    s_new[follower] = max(s_old[follower], cap)
        for lst in exit_lists.values():
            for leader, follower in zip(lst, lst[1:]):
                lead_coord = s_new[leader] - active[leader].plan.exit_start_s
                cap = lead_coord - gap + active[follower].plan.exit_start_s
                if s_new[follower] > cap:
                    s_new[follower] = max(s_old[follower], cap)
        if s_new == before:  # the next pass would read the same values and move nobody
            break
    return s_new


def advance_traffic(state: TrafficState, dt: float) -> tuple[TrafficState, WorldSnapshot]:
    """Move every vehicle by one step and return the post-move snapshot.

    ``dt`` must equal the configured step length, which releases run on;
    another raises ValueError. Vehicles reaching the end of their polyline
    despawn and schedule a freshly drawn replacement.
    """
    if dt != state.config.dt:
        raise ValueError(f"dt {dt!r} is not the configured step length {state.config.dt!r}")
    state.step += 1
    now = state.step * state.config.dt

    s_new = _clamped_progress(state, dt)
    survivors: list[Vehicle] = []
    for v, s in zip(state.active, s_new):
        v.effective_speed = (s - v.progress) / dt
        v.progress = s
        if s >= v.plan.total_length - 1e-9:
            state.pending.append(_draw(state, now))
        else:
            survivors.append(v)
    state.active = survivors
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

