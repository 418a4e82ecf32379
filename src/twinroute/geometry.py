"""Sight-line occlusion: how many vehicle bodies cut an antenna segment.

Boxes are oriented (yaw about z only) and rest on the ground plane. The
segment test is a slab test in the box local frame (Kay & Kajiya, 1986),
closed on both the box surface and the segment, so grazing contact counts
as blocked.

:func:`blockage_count_matrix` counts blockers for every antenna pair of a
snapshot in two phases. A conservative broad phase (bounding circles and
roof heights, with a margin that scales with the coordinates) culls most
(box, pair) combinations with cheap comparisons; the slab test then runs
only on the survivors, so its counts equal those of the scalar test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import NodeId, VehicleState


@dataclass(frozen=True)
class ObstacleBox:
    """Oriented box resting on the ground: center z equals half the height."""

    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    yaw: float
    owner: NodeId

    def __post_init__(self) -> None:
        if min(self.half_extents) <= 0:
            raise ValueError(f"half extents must be positive: {self.half_extents}")


def box_from_vehicle(v: VehicleState) -> ObstacleBox:
    length, width, height = v.dimensions
    x, y, _ = v.position
    return ObstacleBox(
        center=(x, y, height / 2.0),
        half_extents=(length / 2.0, width / 2.0, height / 2.0),
        yaw=v.heading,
        owner=v.id,
    )


def _to_local(box: ObstacleBox, p: Sequence[float]) -> tuple[float, float, float]:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = p[0] - box.center[0]
    dy = p[1] - box.center[1]
    dz = p[2] - box.center[2]
    # inverse rotation about z
    return (c * dx + s * dy, -s * dx + c * dy, dz)


def segment_intersects_box(
    a: Sequence[float], b: Sequence[float], box: ObstacleBox
) -> bool:
    """True iff segment (a, b) hits the closed oriented box (slab test)."""
    ax, ay, az = _to_local(box, a)
    bx, by, bz = _to_local(box, b)
    if (ax, ay, az) == (bx, by, bz):
        raise ValueError("segment endpoints coincide")
    t_enter = 0.0
    t_exit = 1.0
    for o, d, h in (
        (ax, bx - ax, box.half_extents[0]),
        (ay, by - ay, box.half_extents[1]),
        (az, bz - az, box.half_extents[2]),
    ):
        if d == 0.0:
            if abs(o) > h:
                return False
            continue
        t0 = (-h - o) / d
        t1 = (h - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_enter = max(t_enter, t0)
        t_exit = min(t_exit, t1)
        if t_enter > t_exit:
            return False
    return True


def blockage_count(
    tx: Sequence[float],
    rx: Sequence[float],
    obstacles: Iterable[ObstacleBox],
    exclude: frozenset[NodeId] | set[NodeId],
) -> int:
    """Number of non-excluded boxes crossing the tx-rx segment.

    The owners of both link endpoints must be in ``exclude``: an antenna
    never counts its own roof as a blocker.
    """
    if tuple(tx) == tuple(rx):
        raise ValueError("tx and rx coincide")
    count = 0
    for box in obstacles:
        if box.owner in exclude:
            continue
        if segment_intersects_box(tx, rx, box):
            count += 1
    return count


def blockage_count_matrix(
    points: np.ndarray,
    pairs: np.ndarray,
    pair_owner_keys: np.ndarray,
    box_centers: np.ndarray,
    box_half_extents: np.ndarray,
    box_yaws: np.ndarray,
    box_owner_keys: np.ndarray,
) -> np.ndarray:
    """Vectorized blocker counts for many segments against many boxes.

    points: (N, 3) antenna positions; pairs: (P, 2) indices into points;
    pair_owner_keys: (P, 2) integer owner keys per endpoint (RSU = -1);
    boxes given as (B, 3) centers, (B, 3) half extents, (B,) yaws and
    (B,) integer owner keys. Returns (P,) counts, identical to applying
    :func:`segment_intersects_box` per pair/box with owner exclusion.
    """
    n_pairs = len(pairs)
    if n_pairs == 0 or len(box_centers) == 0:
        return np.zeros(n_pairs, dtype=np.int64)

    ax, ay, az = points[pairs[:, 0]].T.copy()  # (P,) columns
    bx, by, bz = points[pairs[:, 1]].T.copy()
    cx, cy, cz = box_centers.T
    hx, hy, hz = box_half_extents.T

    # Broad phase: keep (box, pair) only if the segment's xy bounding box
    # overlaps the box's xy bounding circle, its lower endpoint is not above
    # the roof, and (checked on those few survivors) neither endpoint owns
    # the box. It must never drop a combination the slab test below reports
    # as a hit. When the float slab test reports a hit at parameter t, the
    # exact segment point at t lies within delta of the box in every local
    # axis. The local endpoints carry a few roundings of coordinates of size
    # at most S; the rounded (cos, sin) is an exact rotation scaled by 1 +/- 4u,
    # and the bounding circle ignores the rotation. A slab bound
    # t0 = (-h - o) / d lands within 2u(h + |o|) of its face whatever d is,
    # and the segment is affine in t. So delta < 100 u S (u = 2**-53), and
    # the point is within hypot(hx, hy) + sqrt(2) delta of the center in xy
    # and at most delta above the roof. The sums cx +/- reach below round by
    # up to u S as well. The margin, 1e-9 (1 + S), exceeds both bounds some
    # 10**4 times at any S; a fixed absolute margin would fall below them
    # far from the origin.
    scale = max(np.abs(points).max(), np.abs(box_centers).max()) + box_half_extents.max()
    margin = 1e-9 * (1.0 + scale)
    reach = (np.hypot(hx, hy) + margin)[:, None]
    keep = cx[:, None] - reach <= np.maximum(ax, bx)  # (B, P)
    keep &= cx[:, None] + reach >= np.minimum(ax, bx)
    keep &= cy[:, None] - reach <= np.maximum(ay, by)
    keep &= cy[:, None] + reach >= np.minimum(ay, by)
    keep &= (cz + hz + margin)[:, None] >= np.minimum(az, bz)
    flat = np.flatnonzero(keep)
    idx_b = flat // n_pairs
    idx_p = flat - idx_b * n_pairs
    owner = box_owner_keys[idx_b]
    foreign = (owner != pair_owner_keys[idx_p, 0]) & (owner != pair_owner_keys[idx_p, 1])
    idx_b = idx_b[foreign]
    idx_p = idx_p[foreign]

    # Narrow phase: the slab test on the K survivors. Each value below is the
    # same IEEE expression, in the same order, as a dense (B, P) evaluation
    # would compute for that combination; elementwise + - * / min max do not
    # depend on array shape, so every count is bit-for-bit the same.
    az = az[idx_p]
    dz = bz[idx_p] - az
    oz = az - cz[idx_b]
    hz = hz[idx_b]
    # z is unrotated (yaw about z only)
    with np.errstate(divide="ignore", invalid="ignore"):
        tz0 = (-hz - oz) / dz
        tz1 = (hz - oz) / dz
    t_lo = np.minimum(tz0, tz1)
    t_hi = np.maximum(tz0, tz1)
    level = dz == 0.0
    if level.any():
        inside = np.abs(oz) <= hz
        t_lo = np.where(level, np.where(inside, -np.inf, np.inf), t_lo)
        t_hi = np.where(level, np.where(inside, np.inf, -np.inf), t_hi)
    t_lo = np.maximum(t_lo, 0.0)
    t_hi = np.minimum(t_hi, 1.0)

    cos = np.cos(box_yaws)[idx_b]
    sin = np.sin(box_yaws)[idx_b]
    cx = cx[idx_b]
    cy = cy[idx_b]
    rax = ax[idx_p] - cx
    ray = ay[idx_p] - cy
    rbx = bx[idx_p] - cx
    rby = by[idx_p] - cy
    for o, e, h in (
        (cos * rax + sin * ray, cos * rbx + sin * rby, hx[idx_b]),
        (cos * ray - sin * rax, cos * rby - sin * rbx, hy[idx_b]),
    ):
        d = e - o
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (-h - o) / d
            t1 = (h - o) / d
        lo = np.minimum(t0, t1)
        hi = np.maximum(t0, t1)
        parallel = d == 0.0
        if parallel.any():
            inside = np.abs(o) <= h
            lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
            hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
        t_lo = np.maximum(t_lo, lo)
        t_hi = np.minimum(t_hi, hi)

    return np.bincount(idx_p[t_lo <= t_hi], minlength=n_pairs).astype(np.int64, copy=False)
