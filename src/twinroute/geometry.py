"""Sight-line occlusion: how many vehicle bodies cut an antenna segment.

Boxes are oriented (yaw about z only) and rest on the ground plane. The
segment test is a slab test in the box local frame (Kay & Kajiya, 1986),
closed on both the box surface and the segment, so grazing contact counts
as blocked.

:func:`blockage_count_matrix` counts blockers for every antenna pair of
one or more steps that share their antennas and bodies (a forecast
horizon, or a single snapshot as one step). It first drops every body
whose roof stays below the batch's lowest antenna (sedans under any
antenna), then works in two phases. A conservative broad phase (bounding
circles and roof heights, with a margin that scales with the coordinates)
culls most (step, box, pair) combinations with cheap comparisons; the slab
test then runs only on the survivors, so its counts equal those of the
same test applied to one segment and one box at a time.
"""

from __future__ import annotations

import numpy as np


def blockage_count_matrix(
    points: np.ndarray,
    pairs: np.ndarray,
    pair_owner_keys: np.ndarray,
    box_centers: np.ndarray,
    box_half_extents: np.ndarray,
    box_yaws: np.ndarray,
    box_owner_keys: np.ndarray,
) -> np.ndarray:
    """Vectorized blocker counts for many segments against many boxes, per step.

    S steps share one set of antennas, pairs and bodies, which move from
    step to step. points: (S, N, 3) antenna positions; pairs: (P, 2)
    indices into each step's points; pair_owner_keys: (P, 2) integer owner
    keys per endpoint (RSU = -1); boxes given as (S, B, 3) centers, (B, 3)
    half extents, (S, B) yaws and (B,) integer owner keys. Returns (S, P)
    counts: entry (s, p) is the number of step-s boxes that pair p's
    segment touches (closed slab test), not counting boxes its endpoints
    own.
    """
    n_steps, n_boxes = box_yaws.shape
    n_pairs = len(pairs)
    if n_steps == 0 or n_pairs == 0 or n_boxes == 0:
        return np.zeros((n_steps, n_pairs), dtype=np.int64)
    # the margin (argued below) depends on every box, dropped ones included
    scale = max(np.abs(points).max(), np.abs(box_centers).max()) + box_half_extents.max()
    margin = 1e-9 * (1.0 + scale)

    # Drop the bodies below every antenna: a box whose highest roof over the
    # batch, plus the margin, is below the batch's lowest antenna fails the
    # roof test below for every step and pair. The roof sums round as there,
    # and rounding is monotone, so the max over steps is the same float.
    roofs = (box_centers[:, :, 2] + box_half_extents[:, 2]).max(axis=0)
    tall = np.flatnonzero(roofs + margin >= points[:, :, 2].min())
    if len(tall) < n_boxes:
        if len(tall) == 0:
            return np.zeros((n_steps, n_pairs), dtype=np.int64)
        box_centers = box_centers.take(tall, axis=1)
        box_half_extents = box_half_extents.take(tall, axis=0)
        box_yaws = box_yaws.take(tall, axis=1)
        box_owner_keys = box_owner_keys.take(tall)
        n_boxes = len(tall)

    # segment ends as (S, 1, P) and box centers as (S, B, 1), so that they
    # broadcast to (S, B, P)
    cols = points.transpose(2, 0, 1)[:, :, None]  # (3, S, 1, N)
    ax, ay, az = cols[..., pairs[:, 0]]
    bx, by, bz = cols[..., pairs[:, 1]]
    cx, cy, cz = box_centers.transpose(2, 0, 1)[..., None]
    hx, hy, hz = box_half_extents.T  # (B,) each

    # Broad phase: keep (step, box, pair) only if the segment's xy bounding
    # box overlaps the box's xy bounding circle, its lower endpoint is not
    # above the roof, and (checked on those few survivors) neither endpoint
    # owns the box. It must never drop a combination the slab test below
    # reports as a hit. When the float slab test reports a hit at parameter
    # t, the exact segment point at t lies within delta of the box in every
    # local axis. The local endpoints carry a few roundings of coordinates
    # of size at most L, the largest magnitude in the scene; the rounded
    # (cos, sin) is an exact rotation scaled by 1 +/- 4u, and the bounding
    # circle ignores the rotation. A slab bound t0 = (-h - o) / d lands
    # within 2u(h + |o|) of its face whatever d is, and the segment is
    # affine in t. So delta < 100 u L (u = 2**-53), and the point is within
    # hypot(hx, hy) + sqrt(2) delta of the center in xy and at most delta
    # above the roof. The sums cx +/- reach below round by up to u L as
    # well. The margin, 1e-9 (1 + L), exceeds both bounds some 10**4 times
    # at any L; a fixed absolute margin would fall below them far from the
    # origin. L is taken over every step of the batch, so the margin is at
    # least each step's own: a batch only keeps more combinations for the
    # exact slab test, and never changes a count.
    reach = (np.hypot(hx, hy) + margin)[:, None]
    keep = cx - reach <= np.maximum(ax, bx)  # (S, B, P)
    keep &= cx + reach >= np.minimum(ax, bx)
    keep &= cy - reach <= np.maximum(ay, by)
    keep &= cy + reach >= np.minimum(ay, by)
    keep &= cz + hz[:, None] + margin >= np.minimum(az, bz)
    sb, idx_p = np.divmod(np.flatnonzero(keep), n_pairs)  # sb = step * B + box
    del keep
    idx_b = sb % n_boxes
    owner = box_owner_keys[idx_b]
    foreign = (owner != pair_owner_keys[idx_p, 0]) & (owner != pair_owner_keys[idx_p, 1])
    sb, idx_b = sb[foreign], idx_b[foreign]
    sp = sb // n_boxes * n_pairs + idx_p[foreign]  # step * P + pair
    del idx_p, owner, foreign

    # Narrow phase: the slab test on the K survivors, one axis at a time.
    # Every value a comparison below reads is the same IEEE expression, in
    # the same order, that a dense per-step (B, P) evaluation computes for
    # that combination (up to the sign of a zero, which no comparison sees);
    # elementwise + - * / min max do not depend on array shape, so every
    # count is bit-for-bit the same. Few survivor-length arrays stay alive:
    # temporaries die inside each expression or slab call.
    # z is unrotated (yaw about z only)
    a = az.ravel()[sp]
    t_lo, t_hi = _clip_slab(a - cz.ravel()[sb], bz.ravel()[sp] - a, hz[idx_b], 0.0, 1.0)
    del a
    # both ends in the box frame: local x is cos x + sin y, local y is cos y - sin x
    cos = np.cos(box_yaws).ravel()[sb]
    sin = np.sin(box_yaws).ravel()[sb]
    box_x = cx.ravel()[sb]
    box_y = cy.ravel()[sb]
    ends = []
    for px, py in ((ax, ay), (bx, by)):
        rx = px.ravel()[sp] - box_x
        ry = py.ravel()[sp] - box_y
        ends.append((cos * rx + sin * ry, cos * ry - sin * rx))
    del sb, cos, sin, box_x, box_y, rx, ry
    for o, e, h in zip(*ends, (hx, hy)):
        t_lo, t_hi = _clip_slab(o, e - o, h[idx_b], t_lo, t_hi)

    counts = np.bincount(sp[t_lo <= t_hi], minlength=n_steps * n_pairs)
    return counts.reshape(n_steps, n_pairs).astype(np.int64, copy=False)


def _clip_slab(
    o: np.ndarray, d: np.ndarray, h: np.ndarray, t_lo: np.ndarray | float, t_hi: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """[t_lo, t_hi] narrowed to the t where o + t d lies in [-h, h].

    A zero d keeps everything (o inside) or nothing (o outside).
    """
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
    return np.maximum(t_lo, lo), np.minimum(t_hi, hi)
