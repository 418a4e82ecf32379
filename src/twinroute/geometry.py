"""Sight-line occlusion: how many vehicle bodies cut an antenna segment.

Boxes are oriented (yaw about z only) and rest on the ground plane. The
segment test is a slab test in the box local frame (Kay & Kajiya, 1986),
closed on both the box surface and the segment, so grazing contact counts
as blocked.

:func:`blockage_count_matrix` counts blockers for every antenna pair of
one or more steps that share their antennas and bodies (a forecast
horizon, or a single snapshot as one step). It first drops every body
whose roof stays below the batch's lowest antenna (sedans under any
antenna). It then puts every antenna into every remaining body's frame,
once per (step, body, antenna), and gives it an outcode: one bit per box
face the antenna lies beyond by more than a margin that scales with the
coordinates, and one bit for a body the antenna does not own. A (step,
body, pair) is culled when its two ends share a face bit or are not both
foreign; the slab test runs on the rest, reading the ends' box-frame
offsets by gather, so its counts equal those of the same test applied to
one segment and one box at a time. The steps go through these stages in
chunks whose (step, pair, body) outcode mask stays under a fixed byte
bound, so a batch of many steps over a large scene costs no more per
step than one step alone.
"""

from __future__ import annotations

import numpy as np


# outcode bits of one antenna against one box: beyond each of the five
# faces an antenna can lie beyond (the floor is below every antenna), and
# not owned by the antenna
_FACE_BITS = 5
_FOREIGN = 1 << _FACE_BITS

# The most bytes the (S, P, B) outcode mask of one chunk of steps may
# take. Past a few hundred kB the mask and the (S, N, B) frames leave the
# cache, and a batch then costs more per step than one step alone: in 60 s
# runs of 120 all-connected vehicles on 2 lanes, truth runs built unchunked
# took 3.2-3.6 ms per step, one step at a time 3.0-3.6 ms, and chunked
# under this bound 2.7-2.9 ms. A truth run of six steps of up to 40
# vehicles (820 pairs, 40 bodies) never reaches it, and the 20-step
# forecasts of 30 half-connected vehicles stay far under it; at 60
# vehicles on 2 lanes a few truth runs are cut.
_MASK_BYTES = 1 << 18


def blockage_count_matrix(
    points: np.ndarray,
    pairs: np.ndarray,
    point_owner_keys: np.ndarray,
    box_centers: np.ndarray,
    box_half_extents: np.ndarray,
    box_yaws: np.ndarray,
    box_owner_keys: np.ndarray,
) -> np.ndarray:
    """Vectorized blocker counts for many segments against many boxes, per step.

    S steps share one set of antennas, pairs and bodies, which move from
    step to step. points: (S, N, 3) antenna positions; pairs: (P, 2)
    indices into each step's points; point_owner_keys: (N,) integer owner
    key per antenna (RSU = -1); boxes given as (S, B, 3) centers, (B, 3)
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

    # Drop the bodies below every antenna: when a box's highest roof over
    # the batch, plus the margin, is below the batch's lowest antenna,
    # every antenna lies more than the margin (less a few roundings) above
    # its roof at every step, and the argument below shows that the slab
    # test then reports no touch. Rounding is monotone, so the max over
    # steps of the rounded roof sums is the highest roof's rounded sum.
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

    # one chunk of steps at a time, each (S, P, B) mask under _MASK_BYTES;
    # a single step is never cut
    chunk = max(_MASK_BYTES // (n_pairs * n_boxes), 1)
    counts = [
        _chunk_counts(
            points[s:s + chunk], pairs, point_owner_keys, box_centers[s:s + chunk],
            box_half_extents, box_yaws[s:s + chunk], box_owner_keys, margin,
        )
        for s in range(0, n_steps, chunk)
    ]
    return counts[0] if len(counts) == 1 else np.concatenate(counts)


def _chunk_counts(
    points: np.ndarray,
    pairs: np.ndarray,
    point_owner_keys: np.ndarray,
    box_centers: np.ndarray,
    box_half_extents: np.ndarray,
    box_yaws: np.ndarray,
    box_owner_keys: np.ndarray,
    margin: float,
) -> np.ndarray:
    """The (S, P) counts of one chunk of steps, every box of it within
    reach of the antennas, culled with ``margin``."""
    n_steps, n_boxes = box_yaws.shape
    n_points = points.shape[1]
    n_pairs = len(pairs)

    # Every antenna in every box's frame, once per (step, antenna, box):
    # local x is cos x + sin y, local y is cos y - sin x, and z is
    # unrotated (yaw about z only). Each (S, N, B) array broadcasts
    # (S, N, 1) antennas against (S, 1, B) boxes.
    px, py, pz = points.transpose(2, 0, 1)[..., None]
    cx, cy, cz = box_centers.transpose(2, 0, 1)[:, :, None]
    cos = np.cos(box_yaws)[:, None]
    sin = np.sin(box_yaws)[:, None]
    rx = px - cx
    ry = py - cy
    lx = cos * rx + sin * ry
    ly = cos * ry - sin * rx
    lz = pz - cz
    del rx, ry, cos, sin

    # Cull: one outcode per (step, antenna, box) (Ericson, Real-Time
    # Collision Detection, 2004, 5.3), with a bit for each face the antenna
    # lies beyond by more than the margin and a bit for a box it does not
    # own. A (step, pair, box) goes on to the slab test only if both ends
    # are foreign and no face has both ends beyond it. The cull reads the
    # same lx, ly, lz floats as the slab test, so it must only cover the
    # slab's own rounding. Say both ends lie beyond the face +h of one
    # axis, o > h + m and e > h + m, where o is the first end's local value
    # and d the slab's step (e - o in x and y; in z the world bz - az,
    # which differs from e - o by at most 4 u L, u = 2**-53 and L the
    # largest coordinate magnitude). If d > 0 or d == 0, both slab bounds
    # (+-h - o) / d are negative (or the zero-d test sees o outside), so
    # the slab reports no touch. If d < 0, the entry bound is
    # (o - h) / |d|, and o - h exceeds |d| by at least m - 4 u L while
    # |d| < 8 L; its three roundings move the quotient by under 4 u, far
    # less than the m / 8 L it exceeds 1 by, so it stays above 1 and the
    # slab reports no touch either. The face -h is the mirror image. The
    # margin, 1e-9 (1 + L), is some 10**5 times what this needs at any L;
    # a fixed absolute margin would fall below it far from the origin. L
    # is taken over every step of the whole batch, so the argument holds
    # for each chunk, whose own L is no larger: a batch or a chunk only
    # keeps more combinations for the exact slab test and never changes a
    # count.
    hx, hy, hz = box_half_extents.T  # (B,) each
    code = np.empty(lx.shape, dtype=np.uint8)
    code[...] = (point_owner_keys[:, None] != box_owner_keys).view(np.uint8) << _FACE_BITS
    faces = (
        lx < -(hx + margin), lx > hx + margin,
        ly < -(hy + margin), ly > hy + margin,
        lz > hz + margin,
    )
    for bit, beyond in enumerate(faces):
        code |= beyond.view(np.uint8) << bit
    del faces, beyond
    first, second = pairs.T
    shared = code.take(first, axis=1)  # (S, P, B)
    shared &= code.take(second, axis=1)
    sp, b = np.divmod(np.flatnonzero(shared == _FOREIGN), n_boxes)  # sp = step * P + pair
    del code, shared

    # Narrow phase: the slab test on the K survivors, one axis at a time.
    # The offsets -h - o and h - o of a box's two faces from an end o are
    # per (step, antenna, box) too, and each survivor gathers them and its
    # ends. Every value a comparison below reads is the same IEEE
    # expression, in the same order, that a dense per-step (B, P)
    # evaluation computes for that combination (up to the sign of a zero,
    # which no comparison sees); elementwise + - * / min max do not depend
    # on array shape, so every count is bit-for-bit the same.
    step_rows = np.arange(n_steps)[:, None] * n_points
    end_a = ((step_rows + first) * n_boxes).ravel()[sp] + b
    end_b = ((step_rows + second) * n_boxes).ravel()[sp] + b
    z = points[:, :, 2]
    flat_x, flat_y = lx.ravel(), ly.ravel()
    slabs = (
        (lz, hz, (z.take(second, axis=1) - z.take(first, axis=1)).ravel()[sp]),  # world bz - az
        (lx, hx, flat_x[end_b] - flat_x[end_a]),
        (ly, hy, flat_y[end_b] - flat_y[end_a]),
    )
    t_lo, t_hi = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for offsets, h, d in slabs:
            to_low = (-h - offsets).ravel()[end_a]
            to_high = (h - offsets).ravel()[end_a]
            t_lo, t_hi = _clip_slab(to_low, to_high, d, t_lo, t_hi)

    counts = np.bincount(sp[t_lo <= t_hi], minlength=n_steps * n_pairs)
    return counts.reshape(n_steps, n_pairs).astype(np.int64, copy=False)


def _clip_slab(
    to_low: np.ndarray,
    to_high: np.ndarray,
    d: np.ndarray,
    t_lo: np.ndarray | float,
    t_hi: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """[t_lo, t_hi] narrowed to the t where o + t d lies in [-h, h], given
    the offsets of the two faces from o, to_low = -h - o and to_high = h - o.

    A zero d keeps everything (o inside) or nothing (o outside); the signs
    of the offsets tell which, exactly. The caller holds the errstate that
    lets the division by a zero d pass.
    """
    t0 = to_low / d
    t1 = to_high / d
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1, out=t0)
    parallel = np.flatnonzero(d == 0.0)
    if len(parallel):
        inside = (to_low[parallel] <= 0.0) & (to_high[parallel] >= 0.0)
        lo[parallel] = np.where(inside, -np.inf, np.inf)
        hi[parallel] = np.where(inside, np.inf, -np.inf)
    return np.maximum(t_lo, lo, out=lo), np.minimum(t_hi, hi, out=hi)
