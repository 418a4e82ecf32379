from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from twinroute import topology
from twinroute.config import default_config
from twinroute.engine import run_single
from twinroute.geometry import (
    ObstacleBox,
    blockage_count,
    blockage_count_matrix,
    box_from_vehicle,
    segment_intersects_box,
)
from twinroute.model import NodeId, Strategy

from conftest import TRUCK, make_vehicle
from oracles import (
    SURFACE_TOLERANCE,
    oracle_dense_blockage_counts,
    oracle_min_surface_distance,
    oracle_occlusion,
)

SEDAN_BOX = ObstacleBox(
    center=(0.0, 0.0, 0.75),
    half_extents=(2.25, 0.9, 0.75),
    yaw=0.0,
    owner=NodeId.vehicle(99),
)


def test_segment_above_roof_clears():
    # antennas at 1.6 m pass over a 1.5 m tall body
    assert not segment_intersects_box((-10, 0, 1.6), (10, 0, 1.6), SEDAN_BOX)


def test_segment_through_cabin_blocked():
    assert segment_intersects_box((-10, 0, 1.0), (10, 0, 1.0), SEDAN_BOX)


def test_distant_box_clears():
    far = ObstacleBox((100.0, 100.0, 0.75), (2.25, 0.9, 0.75), 0.0, NodeId.vehicle(99))
    assert not segment_intersects_box((-10, 0, 1.0), (10, 0, 1.0), far)


def test_yaw_rotation_matters():
    # long thin box across x blocks a y-direction segment only when rotated into it
    box = ObstacleBox((0.0, 0.0, 1.0), (4.0, 0.4, 1.0), 0.0, NodeId.vehicle(99))
    a, b = (3.0, -10.0, 1.0), (3.0, 10.0, 1.0)
    assert segment_intersects_box(a, b, box)
    rotated = ObstacleBox((0.0, 0.0, 1.0), (4.0, 0.4, 1.0), np.pi / 2, NodeId.vehicle(99))
    assert not segment_intersects_box(a, b, rotated)


def test_grazing_face_counts_as_blocked():
    # segment touching the top face exactly
    assert segment_intersects_box((-10, 0, 1.5), (10, 0, 1.5), SEDAN_BOX)


def test_degenerate_segment_rejected():
    with pytest.raises(ValueError):
        segment_intersects_box((1, 2, 3), (1, 2, 3), SEDAN_BOX)


def test_blockage_count_empty_and_exclusion():
    assert blockage_count((-10, 0, 1), (10, 0, 1), [], exclude=set()) == 0
    assert (
        blockage_count((-10, 0, 1), (10, 0, 1), [SEDAN_BOX], exclude={SEDAN_BOX.owner}) == 0
    )


def test_blockage_count_three_straddling_boxes():
    boxes = [
        ObstacleBox((x, 0.0, 0.75), (2.25, 0.9, 0.75), 0.0, NodeId.vehicle(i))
        for i, x in enumerate((-5.0, 0.0, 5.0))
    ]
    # brute-force composition: each box individually intersects, none excluded
    individually = sum(
        segment_intersects_box((-10, 0, 1.0), (10, 0, 1.0), b) for b in boxes
    )
    assert individually == 3
    assert blockage_count((-10, 0, 1.0), (10, 0, 1.0), boxes, exclude=set()) == 3


def test_blockage_symmetry_and_monotonicity_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = tuple(rng.uniform(-30, 30, 3))
        b = tuple(rng.uniform(-30, 30, 3))
        boxes = []
        for i in range(int(rng.integers(1, 6))):
            h = float(rng.uniform(0.5, 2.0))
            boxes.append(
                ObstacleBox(
                    (float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)), h),
                    (float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 2)), h),
                    float(rng.uniform(-np.pi, np.pi)),
                    NodeId.vehicle(i),
                )
            )
        forward = blockage_count(a, b, boxes, exclude=set())
        assert forward == blockage_count(b, a, boxes, exclude=set())
        # adding an obstacle never decreases the count
        extra = ObstacleBox((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), 0.3, NodeId.vehicle(50))
        assert blockage_count(a, b, boxes + [extra], exclude=set()) >= forward


def test_box_from_vehicle_rests_on_ground():
    v = make_vehicle(3, 10.0, -4.0, heading=0.7, body=TRUCK)
    box = box_from_vehicle(v)
    assert box.center == (10.0, -4.0, 1.6)
    assert box.half_extents == (4.0, 1.25, 1.6)
    assert box.yaw == 0.7
    assert box.owner == v.id


def test_slab_agrees_with_sampling_oracle(fuzz_scale):
    """Seeded random (segment, box) pairs: slab test vs dense sampling.

    Disagreement is tolerated only within 1e-6 m of the box surface.
    """
    rng = np.random.default_rng(2024)
    n = 1000 * fuzz_scale
    checked = 0
    for _ in range(n):
        a = (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0.2, 8))
        b = (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0.2, 8))
        h = float(rng.uniform(0.4, 2.0))
        center = (float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)), h)
        half = (float(rng.uniform(0.5, 5)), float(rng.uniform(0.4, 2)), h)
        yaw = float(rng.uniform(-np.pi, np.pi))
        box = ObstacleBox(center, half, yaw, NodeId.vehicle(0))

        slab = segment_intersects_box(a, b, box)
        sampled = oracle_occlusion(a, b, center, half, yaw)
        if slab != sampled:
            margin = oracle_min_surface_distance(a, b, center, half, yaw)
            assert margin < SURFACE_TOLERANCE, (a, b, box, slab, sampled, margin)
        else:
            checked += 1
    assert checked > 0.99 * n


def scalar_counts(pts, pairs, pair_owners, centers, halves, yaws, box_owners):
    """Per-pair blocker counts from :func:`segment_intersects_box`, one box at a time."""
    counts = []
    for p, (i, j) in enumerate(pairs):
        want = 0
        for k in range(len(centers)):
            if box_owners[k] in (pair_owners[p, 0], pair_owners[p, 1]):
                continue
            box = ObstacleBox(
                tuple(centers[k]), tuple(halves[k]), float(yaws[k]), NodeId.vehicle(int(box_owners[k]))
            )
            if segment_intersects_box(tuple(pts[i]), tuple(pts[j]), box):
                want += 1
        counts.append(want)
    return counts


def oracle_per_step(points, pairs, pair_owners, centers, halves, yaws, box_owners):
    """The dense oracle applied to each step of a batched kernel call, stacked."""
    return np.array(
        [
            oracle_dense_blockage_counts(p, pairs, pair_owners, c, halves, y, box_owners)
            for p, c, y in zip(points, centers, yaws)
        ],
        dtype=np.int64,
    ).reshape(len(points), len(pairs))


def assert_kernel_matches(pts, pairs, pair_owners, centers, halves, yaws, box_owners):
    """One scene as a one-step batch: kernel vs scalar test vs dense oracle."""
    args = (np.asarray(pts, dtype=np.float64), np.asarray(pairs), np.asarray(pair_owners),
            np.asarray(centers, dtype=np.float64), np.asarray(halves, dtype=np.float64),
            np.asarray(yaws, dtype=np.float64), np.asarray(box_owners))
    points, pairs, pair_owners, centers, halves, yaws, box_owners = args
    batch = blockage_count_matrix(
        points[None], pairs, pair_owners, centers[None], halves, yaws[None], box_owners
    )
    assert batch.dtype == np.int64
    assert batch.shape == (1, len(pairs))
    got = batch[0]
    assert got.tolist() == scalar_counts(*args)
    assert np.array_equal(got, oracle_dense_blockage_counts(*args))
    return got


def random_scene(rng, offset=0.0):
    n_pts = int(rng.integers(2, 8))
    pts = rng.uniform(-30, 30, size=(n_pts, 3))
    pts[:, 2] = rng.uniform(0.5, 6.0, size=n_pts)
    n_boxes = int(rng.integers(1, 6))
    heights = rng.uniform(1.0, 4.0, size=n_boxes)
    centers = rng.uniform(-30, 30, size=(n_boxes, 3))
    centers[:, 2] = heights / 2
    halves = np.stack(
        [rng.uniform(1, 4, n_boxes), rng.uniform(0.5, 2, n_boxes), heights / 2], axis=1
    )
    yaws = rng.uniform(-np.pi, np.pi, size=n_boxes)
    box_owners = rng.integers(0, 10, size=n_boxes)
    ii, jj = np.triu_indices(n_pts, k=1)
    pairs = np.stack([ii, jj], axis=1)
    pair_owners = rng.integers(-1, 10, size=(len(pairs), 2))
    pts[:, :2] += offset
    centers[:, :2] += offset
    return pts, pairs, pair_owners, centers, halves, yaws, box_owners


def test_batch_kernel_matches_scalar(fuzz_scale):
    rng = np.random.default_rng(5)
    for _ in range(150 * fuzz_scale):
        assert_kernel_matches(*random_scene(rng))


def test_batch_kernel_matches_scalar_far_from_origin(fuzz_scale):
    rng = np.random.default_rng(6)
    for _ in range(150 * fuzz_scale):
        assert_kernel_matches(*random_scene(rng, offset=1e6))


def one_box_scene(segments, center=(0.0, 0.0), half=(2.25, 0.9, 0.75), yaw=0.0, shift=0.0):
    """Segments (a, b) against one box on the ground, all moved by ``shift`` in x and y."""
    pts = np.array([p for seg in segments for p in seg], dtype=np.float64)
    pts[:, :2] += shift
    pairs = np.arange(len(pts)).reshape(-1, 2)
    centers = [(center[0] + shift, center[1] + shift, half[2])]
    return pts, pairs, np.full((len(pairs), 2), -1), centers, [half], [yaw], [7]


HX, HY, HZ = 2.25, 0.9, 0.75
ADVERSARIAL = {
    # dz == 0: antennas of one vehicle class, below, on and above the roof
    "level": [((-10, 0, 1.0), (10, 0, 1.0)), ((-10, 0.3, 2 * HZ), (10, 0.3, 2 * HZ)),
              ((-10, 0, 1.6), (10, 0, 1.6)), ((0, -10, 0.5), (0, 10, 0.5))],
    # touching a side face, the end face, the roof, a vertical edge, a top corner
    "grazing": [((-10, HY, 1.0), (10, HY, 1.0)), ((HX, -10, 1.0), (HX, 10, 1.0)),
                ((-10, -10, 2 * HZ), (10, 10, 2 * HZ)),
                ((HX + 1, HY - 1, 1.0), (HX - 1, HY + 1, 1.0)),
                ((HX + 1, HY - 1, 2 * HZ + 1), (HX - 1, HY + 1, 2 * HZ - 1)),
                ((-10, -HY, 0.3), (10, -HY, 2.0)), ((-10, HY + 1e-12, 1.0), (10, HY + 1e-12, 1.0))],
    # d == 0 (or nearly, once rotated) in one local axis
    "axis_parallel": [((-10, 0.5, 1.0), (10, 0.5, 3.0)), ((1.0, -10, 1.0), (1.0, 10, 2.5)),
                      ((-10, 5.0, 1.0), (10, 5.0, 1.0)), ((5.0, -10, 1.0), (5.0, 10, 1.0)),
                      ((0.0, 0.0, 4.0), (0.0, 0.0, 0.1)), ((3.0, 0.0, 4.0), (3.0, 0.0, 0.1))],
}


@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["origin", "shifted"])
@pytest.mark.parametrize("yaw", [0.0, np.pi / 2, -np.pi / 2, np.pi], ids=["0", "pi/2", "-pi/2", "pi"])
@pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
def test_batch_kernel_matches_scalar_on_adversarial_segments(kind, yaw, shift):
    got = assert_kernel_matches(*one_box_scene(ADVERSARIAL[kind], yaw=yaw, shift=shift))
    if kind == "grazing" and yaw == 0.0 and shift == 0.0:
        assert got.tolist() == [1, 1, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("shift", [0.0, 1e6, -3e7], ids=["origin", "shifted", "far"])
def test_batch_kernel_keeps_segments_tangent_to_the_bounding_circle(shift):
    # tangent at the top corner: touches the box there; tangent elsewhere misses it
    corner = np.array([HX, HY])
    radius = np.hypot(HX, HY)
    tangent = np.array([-HY, HX]) / radius
    segments = [
        ((*(corner - 5 * tangent), 1.0), (*(corner + 5 * tangent), 1.0)),
        ((radius, -5.0, 1.0), (radius, 5.0, 1.0)),
        ((-5.0, radius, 1.0), (5.0, radius, 1.0)),
        ((*(-corner - 5 * tangent), 1.0), (*(-corner + 5 * tangent), 1.0)),
    ]
    got = assert_kernel_matches(*one_box_scene(segments, shift=shift))
    if shift == 0.0:
        assert got.tolist()[1:3] == [0, 0]
    # yawed so that corners sit on the circle's x and y extremes, where the
    # bounding test is tight: lines x = +/-radius and y = +/-radius graze them
    for yaw in (-np.arctan2(HY, HX), np.pi / 2 - np.arctan2(HY, HX)):
        lines = [((s * radius, -5.0, 1.0), (s * radius, 5.0, 1.0)) for s in (1, -1)]
        lines += [((-5.0, s * radius, 1.0), (5.0, s * radius, 1.0)) for s in (1, -1)]
        lines += [((s * radius, -5.0, 0.5), (s * radius, 5.0, 2 * HZ)) for s in (1, -1)]
        assert_kernel_matches(*one_box_scene(lines, yaw=yaw, shift=shift))


def ulp_steps(value, n):
    """The floats within n ulps of value, value included."""
    below = [value]
    above = [value]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e9], ids=["origin", "shifted", "far"])
def test_batch_kernel_matches_at_the_bounding_circle_extremes(shift, fuzz_scale):
    """Lines within a few ulps of x = cx +/- r and y = cy +/- r, r the
    bounding radius, against boxes yawed to put a corner there: rounding
    makes the float slab test report some of them as hits, so the broad
    phase must keep them."""
    rng = np.random.default_rng(17)
    for _ in range(40 * fuzz_scale):
        half = (rng.uniform(0.5, 4), rng.uniform(0.3, 2), rng.uniform(0.5, 2))
        radius = np.hypot(half[0], half[1])
        yaw = -np.arctan2(half[1], half[0]) + rng.choice([0, np.pi / 2, np.pi, -np.pi / 2])
        cx, cy = shift + rng.uniform(-1, 1, size=2)
        segments = []
        for sign in (1, -1):
            for x in ulp_steps(cx + sign * radius, 4):
                segments.append(((x, cy - 5, 1.0), (x, cy + 5, 1.0)))
            for y in ulp_steps(cy + sign * radius, 4):
                segments.append(((cx - 5, y, 1.0), (cx + 5, y, 1.0)))
        pts = np.array([p for seg in segments for p in seg])
        pairs = np.arange(len(pts)).reshape(-1, 2)
        assert_kernel_matches(
            pts, pairs, np.full((len(pairs), 2), -1), [(cx, cy, half[2])], [half], [yaw], [7]
        )


def test_batch_kernel_matches_dense_reference_on_a_dense_run(monkeypatch):
    """Every topology build of a 60-vehicle, 2-lane, all-connected run."""
    builds = []

    def checked(*args):
        got = blockage_count_matrix(*args)
        want = oracle_per_step(*args)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        builds.append(int(want.sum()))
        return got

    monkeypatch.setattr(topology, "blockage_count_matrix", checked)
    cfg = default_config(duration=20.0, vehicle_count=60, connected_fraction=1.0, seed=1)
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=2)
    )
    run_single(cfg)
    assert len(builds) > 150  # one kernel call per build
    assert sum(builds) > 0


def random_steps(rng, n_steps, offsets):
    """One set of antennas, pairs and bodies moved to ``n_steps`` poses; step
    s is shifted by ``offsets[s]`` in x and y."""
    pts, pairs, pair_owners, centers, halves, yaws, box_owners = random_scene(rng)
    points = pts + rng.uniform(-5, 5, size=(n_steps, *pts.shape)) * [1, 1, 0]
    box_centers = centers + rng.uniform(-5, 5, size=(n_steps, *centers.shape)) * [1, 1, 0]
    box_yaws = yaws + rng.uniform(-1, 1, size=(n_steps, len(yaws)))
    shift = np.asarray(offsets, dtype=np.float64)[:, None, None] * [1, 1, 0]
    return points + shift, pairs, pair_owners, box_centers + shift, halves, box_yaws, box_owners


@pytest.mark.parametrize(
    "offsets", [(0.0,) * 6, (0.0, 0.0, 1e6, 0.0, -3e7, 1e6)], ids=["near", "mixed"]
)
def test_batch_kernel_steps_match_each_step_alone(offsets, fuzz_scale):
    """Each step of a batch counts as the scalar test and as the step alone;
    in "mixed" some steps lie far out, so the batch margin far exceeds the
    near steps' own."""
    rng = np.random.default_rng(23)
    for _ in range(60 * fuzz_scale):
        args = random_steps(rng, len(offsets), offsets)
        points, pairs, pair_owners, centers, halves, yaws, box_owners = args
        got = blockage_count_matrix(*args)
        assert got.dtype == np.int64
        assert got.shape == (len(offsets), len(pairs))
        assert np.array_equal(got, oracle_per_step(*args))
        for s in range(len(offsets)):
            step = (points[s], pairs, pair_owners, centers[s], halves, yaws[s], box_owners)
            assert got[s].tolist() == scalar_counts(*step)
            alone = blockage_count_matrix(
                points[s:s + 1], pairs, pair_owners, centers[s:s + 1], halves, yaws[s:s + 1],
                box_owners,
            )
            assert np.array_equal(got[s:s + 1], alone)


def test_batch_kernel_empty_shapes():
    scene = random_scene(np.random.default_rng(3))
    pts, pairs, pair_owners, centers, halves, yaws, box_owners = scene
    no_boxes = blockage_count_matrix(
        np.stack([pts] * 3), pairs, pair_owners, np.zeros((3, 0, 3)), np.zeros((0, 3)),
        np.zeros((3, 0)), np.zeros(0, dtype=np.int64),
    )
    assert no_boxes.dtype == np.int64 and no_boxes.shape == (3, len(pairs)) and not no_boxes.any()
    no_pairs = blockage_count_matrix(
        np.stack([pts] * 3), np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
        np.stack([centers] * 3), halves, np.stack([yaws] * 3), box_owners,
    )
    assert no_pairs.dtype == np.int64 and no_pairs.shape == (3, 0)


def test_batch_kernel_matches_dense_reference_on_every_forecast_epoch(monkeypatch):
    """Every batched call of a 20 s, 30-vehicle mixed predictive run."""
    epochs = []

    def checked(*args):
        got = blockage_count_matrix(*args)
        want = oracle_per_step(*args)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        if len(args[0]) > 1:
            epochs.append((len(args[0]), int(want.sum())))
        return got

    monkeypatch.setattr(topology, "blockage_count_matrix", checked)
    cfg = default_config(
        duration=20.0, vehicle_count=30, connected_fraction=0.5, seed=1,
        strategy=Strategy.PREDICTIVE,
    )
    run_single(cfg)
    # one call per 2 s planning epoch, each over the 2 s (20-step) horizon
    assert [steps for steps, _ in epochs] == [20] * 10
    assert sum(blocked for _, blocked in epochs) > 0
