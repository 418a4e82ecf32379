from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from twinroute.model import NodeId, VehicleState, WorldSnapshot
from twinroute.topology import ConnectivityGraph, _adjacency

# Hypothesis loads its derandomized "ci" profile where a CI variable such as
# GITHUB_ACTIONS is set, so CI draws the same examples on every run. The
# weekly drift canary selects this profile to draw fresh ones, and logs the
# seed and the @reproduce_failure blob of a failure.
settings.register_profile("canary", parent=settings.get_profile("ci"), derandomize=False)

SEDAN = dict(dimensions=(4.5, 1.8, 1.5), antenna_height=1.6)
TRUCK = dict(dimensions=(8.0, 2.5, 3.2), antenna_height=3.3)


def pytest_addoption(parser):
    parser.addoption(
        "--extended",
        action="store_true",
        default=False,
        help="scale fuzz sizes up beyond the defaults",
    )


# acceptance verdict lines, one per criterion, echoed after the test run
# (they would otherwise disappear into pytest's output capture)
CRITERION_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def fuzz_scale(request):
    return 4 if request.config.getoption("--extended") else 1


def make_vehicle(
    index: int,
    x: float,
    y: float,
    heading: float = 0.0,
    speed: float = 10.0,
    connected: bool = True,
    body: dict = SEDAN,
) -> VehicleState:
    return VehicleState(
        id=NodeId.vehicle(index),
        position=(x, y, 0.0),
        heading=heading,
        speed=speed,
        connected=connected,
        **body,
    )


def make_snapshot(
    vehicles,
    timestep: int = 0,
    rsu_height: float = 5.0,
) -> WorldSnapshot:
    return WorldSnapshot.from_vehicles(timestep, vehicles, (0.0, 0.0, rsu_height))


def snapshot_columns(snap: WorldSnapshot) -> dict[str, np.ndarray]:
    """Every column of ``snap`` by name: its poses and speeds, then its
    fleet's bodies, antenna heights and connected mask."""
    fleet = snap.fleet
    return dict(
        xy_yaw=snap.xy_yaw, speed=snap.speed, bodies=fleet.bodies,
        antenna_height=fleet.antenna_height, connected=fleet.connected,
    )


def count_validations(monkeypatch, classes) -> list:
    """Patch each class's ``__post_init__`` check to also record every
    object it validates, as (class name, object), in the returned list."""
    built = []
    for cls in classes:

        def counted(self, check=cls.__post_init__):
            built.append((type(self).__name__, self))
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def detail_counts(lines) -> list[tuple[int, int]]:
    """(satisfied, total) per row of a ``detail/*.csv`` file."""
    rows = [line.split(",") for line in lines if line.strip()][1:]
    return [(int(row[3]), int(row[2])) for row in rows]


def graph_from_losses(losses: dict, vehicles=()) -> ConnectivityGraph:
    """Hand-built graph: ``losses`` maps node pairs, each end a NodeId,
    "rsu" or a vehicle index, to path losses; ``vehicles`` adds the
    vehicles of these indices as nodes, linked or not."""

    def node(x):
        return x if type(x) is NodeId else NodeId.rsu() if x == "rsu" else NodeId.vehicle(x)

    by_pair = {tuple(sorted(map(node, pair))): loss for pair, loss in losses.items()}
    nodes = tuple(sorted({NodeId.rsu(), *map(NodeId.vehicle, vehicles), *(n for p in by_pair for n in p)}))
    index = {n: k for k, n in enumerate(nodes)}
    rows = sorted((index[a], index[b], loss) for (a, b), loss in by_pair.items())
    edges = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    loss = np.array([row[2] for row in rows], dtype=np.float64)
    n = len(rows)
    adjacency = _adjacency(len(nodes), edges[:, 0].tolist(), edges[:, 1].tolist(), loss.tolist())
    return ConnectivityGraph(
        0, nodes, index, edges, np.full(n, 10.0), np.zeros(n, np.int64), loss, adjacency
    )


class Link(NamedTuple):
    distance_m: float
    blockers: int
    path_loss_db: float


def links(graph: ConnectivityGraph) -> dict[tuple[NodeId, NodeId], Link]:
    """The graph's edge rows as ``{(a, b): Link}`` over node ids, ``a < b``."""
    nodes = graph.nodes
    rows = zip(
        graph.edges.tolist(),
        graph.edge_distance.tolist(),
        graph.edge_blockers.tolist(),
        graph.edge_loss.tolist(),
    )
    return {(nodes[i], nodes[j]): Link(d, b, loss) for (i, j), d, b, loss in rows}


def circle_history(radius: float, speed: float, dt: float, n: int, z0_angle: float = 0.0):
    """Vehicle states moving counter-clockwise on a circle centered at origin.

    The last state ends wherever n steps put it; headings are exact
    tangents, so a constant-turn-rate extrapolation should continue the
    circle analytically.
    """
    omega = speed / radius
    states = []
    for k in range(n):
        ang = z0_angle + omega * dt * k
        states.append(
            VehicleState(
                id=NodeId.vehicle(0),
                position=(radius * math.cos(ang), radius * math.sin(ang), 0.0),
                heading=ang + math.pi / 2.0,
                speed=speed,
                connected=True,
                **SEDAN,
            )
        )
    return states
