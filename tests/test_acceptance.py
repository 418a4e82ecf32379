"""Acceptance gate: one test per criterion, one printed line per verdict.

The reliability criteria (5-7) share a single experiment matrix run once
per session: 10 seeds x 600 s, with variants sharing each seed's traffic.
Expect a few minutes of wall time for the matrix and under a minute for
each oracle criterion.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinroute as tr
from twinroute.channel import default_channel_params, path_loss
from twinroute.metrics import TimestepOutcome, reliability

import conftest
from conftest import SEDAN, TRUCK, links, make_snapshot, make_vehicle
from oracles import oracle_shortest_path, oracle_topology_edges, snapshot_graph
from test_routing import random_graph

SEEDS = tuple(range(1, 11))
REPO = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.acceptance


def report(num: int, ok: bool, description: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line, file=sys.stderr)
    conftest.CRITERION_RESULTS.append(line)
    assert ok, line


# -- experiment matrix shared by criteria 5, 6, 7 ---------------------------


def _mixed_cell(seed: int) -> tuple[int, dict[str, float]]:
    base = tr.default_config(
        duration=600.0, vehicle_count=30, connected_fraction=0.5, seed=seed
    )
    variants = {
        "rt": base,
        "pred": dataclasses.replace(base, strategy=tr.Strategy.PREDICTIVE),
        "conv": dataclasses.replace(base, strategy=tr.Strategy.CONVENTIONAL),
        "rt_lag": dataclasses.replace(base, latency_delta=1.0),
    }
    out = tr.run_variants(variants)
    return seed, {name: res.reliability for name, res in out.items()}


def _full10_cell(seed: int) -> tuple[int, dict[str, float]]:
    cfg = tr.default_config(
        duration=600.0, vehicle_count=10, connected_fraction=1.0, seed=seed
    )
    return seed, {"rt": tr.run_single(cfg).reliability}


def _full30_cell(seed: int) -> tuple[int, dict[str, float]]:
    base = tr.default_config(
        duration=600.0, vehicle_count=30, connected_fraction=1.0, seed=seed
    )
    out = tr.run_variants(
        {"rt": base, "single_hop": dataclasses.replace(base, max_hops=1)}
    )
    return seed, {name: res.reliability for name, res in out.items()}


@pytest.fixture(scope="session")
def experiment_matrix():
    with multiprocessing.Pool(processes=2) as pool:
        mixed = dict(pool.map(_mixed_cell, SEEDS))
        full10 = dict(pool.map(_full10_cell, SEEDS))
        full30 = dict(pool.map(_full30_cell, SEEDS))
    return {"mixed": mixed, "full10": full10, "full30": full30}


def _mean(table: dict[int, dict[str, float]], key: str) -> float:
    return sum(row[key] for row in table.values()) / len(table)


# -- criteria ----------------------------------------------------------------


def test_criterion_1_equation_fidelity():
    value = path_loss(100.0, 0, default_channel_params())
    ok = abs(value - 109.5) <= 1e-9
    report(1, ok, f"path loss at 100 m LOS = {value} dB (want 109.5 +/- 1e-9)")


def test_criterion_2_metric_fidelity():
    hand = reliability(
        [TimestepOutcome(t, tot, sat) for t, (sat, tot) in enumerate([(3, 5), (4, 5), (5, 5)], start=1)]
    )
    pooled = reliability([TimestepOutcome(1, 1, 1), TimestepOutcome(2, 10, 0)])
    ok = hand == 0.8 and pooled == 1 / 11
    report(2, ok, f"ratio of sums: (3/5,4/5,5/5) -> {hand}, (1/1,0/10) -> {pooled}")


def test_criterion_3_routing_oracle():
    rng = np.random.default_rng(777)
    graphs = 0
    queries = 0
    for trial in range(500):
        g = random_graph(rng, quantized=trial % 3 == 0)
        graphs += 1
        table = tr.route_realtime(g)
        for source in g.nodes[1:]:
            queries += 1
            got = table[source]
            want = oracle_shortest_path(g, source)
            if got != want:
                report(3, False, f"graph {trial} source {source} mismatch")
    report(3, True, f"{graphs} seeded graphs, {queries} routes match exhaustive enumeration")


def test_criterion_4_topology_oracle():
    params = default_channel_params()
    budget = 110.0
    classes = [(c.max_blockers, c.rho, c.gamma) for c in params.classes]
    rng = np.random.default_rng(4242)
    for trial in range(200):
        vehicles = []
        for i in range(int(rng.integers(1, 7))):
            body = [SEDAN, TRUCK][int(rng.integers(0, 2))]
            vehicles.append(
                make_vehicle(
                    i,
                    float(rng.uniform(-70, 70)),
                    float(rng.uniform(-70, 70)),
                    heading=float(rng.uniform(-np.pi, np.pi)),
                    connected=bool(rng.random() < 0.7),
                    body=body,
                )
            )
        snap = make_snapshot(vehicles)
        g = snapshot_graph(snap, params, budget)
        got = {frozenset({str(a), str(b)}): link.blockers for (a, b), link in links(g).items()}
        want = oracle_topology_edges(
            snap, classes, params.atmospheric_db_per_km, params.max_range_m, budget
        )
        if got != want:
            report(4, False, f"snapshot {trial}: edge sets differ")
    report(4, True, "200 seeded snapshots match the first-principles brute force")


@pytest.mark.slow
def test_criterion_5_strategy_ordering(experiment_matrix):
    mixed = experiment_matrix["mixed"]
    rt = _mean(mixed, "rt")
    pred = _mean(mixed, "pred")
    conv = _mean(mixed, "conv")
    ok = rt > pred > conv and rt - conv >= 0.03
    report(
        5,
        ok,
        f"mixed 30-vehicle means over {len(mixed)} seeds: "
        f"realtime={rt:.4f} > predictive={pred:.4f} > conventional={conv:.4f}, "
        f"gap={rt - conv:.4f} (need ordering and gap >= 0.03)",
    )


@pytest.mark.slow
def test_criterion_6_fully_connected_trends(experiment_matrix):
    sparse = _mean(experiment_matrix["full10"], "rt")
    multi = _mean(experiment_matrix["full30"], "rt")
    single = _mean(experiment_matrix["full30"], "single_hop")
    ok = sparse >= 0.99 and multi > single
    report(
        6,
        ok,
        f"fully connected: 10-vehicle realtime={sparse:.4f} (need >= 0.99); "
        f"30-vehicle multi-hop={multi:.4f} > single-hop={single:.4f}",
    )


@pytest.mark.slow
def test_criterion_7_latency_sensitivity(experiment_matrix):
    mixed = experiment_matrix["mixed"]
    fresh = _mean(mixed, "rt")
    lagged = _mean(mixed, "rt_lag")
    ok = lagged < fresh
    report(
        7,
        ok,
        f"mixed 30-vehicle realtime: latency 1.0 s -> {lagged:.4f} < latency 0 -> {fresh:.4f}",
    )


def test_criterion_8_frozen_world_degeneracy():
    vehicles = [
        make_vehicle(0, 30.0, 1.75, speed=0.0),
        make_vehicle(1, -60.0, -1.75, speed=0.0),
        make_vehicle(2, 45.0, 1.75, speed=0.0, connected=False, body=TRUCK),
        make_vehicle(3, -20.0, -1.75, speed=0.0),
        make_vehicle(4, 10.0, 60.0, speed=0.0),
    ]
    frozen = [
        make_snapshot(vehicles, timestep=k) for k in range(60)
    ]
    base = tr.default_config(duration=6.0, vehicle_count=5, seed=1)
    values = {}
    for strategy in tr.Strategy:
        cfg = dataclasses.replace(base, strategy=strategy)
        values[strategy.value] = tr.run_single(cfg, frozen).reliability
    ok = len(set(values.values())) == 1
    report(8, ok, f"frozen world reliabilities identical across strategies: {values}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = tr.default_config(duration=15.0, vehicle_count=8, connected_fraction=0.5, seed=6)
    cfg_path = tmp_path / "scenario.yaml"
    tr.save_config(cfg, cfg_path)

    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "twinroute.cli", "run", str(cfg_path), "--out-dir", str(out)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        detail = sorted((out / "detail").glob("*.csv"))[0]
        outputs.append(((out / "summary.csv").read_bytes(), detail.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(9, ok, "two executions produced byte-identical summary and detail CSVs")
