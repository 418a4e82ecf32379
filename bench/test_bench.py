"""Self-tests for the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import subprocess
import sys

import pytest

import gate
import learned_model
import tracing
import workloads as wl
from twinroute import engine, mobility, routing, topology
from twinroute.model import NodeId, VehicleState
from twinroute.prediction import ConstantVelocityPredictor, LearnedPredictor, predict


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 2
        inner()
        clock.now += 1
        inner()

    def top():
        clock.now += 5
        outer()

    inner = t.span("leaf", "geometry", leaf)
    outer = t.span("mid", "topology", middle)
    t.span("root", "engine", top)()
    # root 5 + mid (2 + 1 + 2 * 3) = 14; mid 9 with 6 in children; leaves 3 each
    assert t.spans["root"] == [1, 14, 5]
    assert t.spans["mid"] == [1, 9, 3]
    assert t.spans["leaf"] == [2, 6, 6]
    assert t.layer_self_ns("geometry") + t.layer_self_ns("topology") + t.layer_self_ns("engine") == 14


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 4
        raise ValueError("x")

    wrapped = t.span("boom", "routing", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.spans["boom"] == [1, 4, 4]
    assert t._stack == []


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(10, None, None), (11, 1, 100 / 11), (100, 90, 90.0), (1000, 990, 99.0), (144, 134, 100 * 134 / 144)],
)
def test_tail_has_ten_samples_beyond(n, rank, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    summary = gate.latency_summary(values)
    assert summary["samples"] == n
    if rank is None:
        assert summary["tail"] is None
        return
    assert summary["tail"] == float(rank)
    assert sum(v > summary["tail"] for v in values) == gate.MIN_BEYOND
    assert summary["tail_percentile"] == pytest.approx(percentile)


def test_median_of_passes_is_per_step():
    assert gate.median_of_passes([[5, 1, 7], [4, 2, 9], [6, 3, 1]]) == [5, 2, 7]
    with pytest.raises(ValueError):
        gate.median_of_passes([[1, 2], [1]])


def _scenario_outputs():
    return {
        "s100w0/realtime": {"reliability": 0.99, "satisfied": 99, "total": 100, "sha256": "a" * 64},
        "s100w0/predictive": {"reliability": 0.9, "satisfied": 90, "total": 100, "sha256": "b" * 64},
    }


def test_gate_passes_identical_outputs():
    ref = _scenario_outputs()
    failed, reasons = gate.check([ref, _scenario_outputs()], [set(), set()], sorted(ref), ref)
    assert (failed, reasons) == (0, [])


@pytest.mark.parametrize("field, value", [("reliability", 0.9900000000000001), ("sha256", "c" * 64)])
def test_gate_rejects_perturbed_output(field, value):
    ref = _scenario_outputs()
    got = _scenario_outputs()
    got["s100w0/realtime"][field] = value
    failed, reasons = gate.check([got], [set()], sorted(ref), ref)
    assert failed == 1
    assert "s100w0/realtime" in reasons[0]


def test_gate_without_reference_compares_passes():
    first = _scenario_outputs()
    second = _scenario_outputs()
    second["s100w0/predictive"]["satisfied"] = 91
    failed, _ = gate.check([first, second], [set(), set()], sorted(first), None)
    assert failed == 1


def test_gate_whole_file_mismatch_fails_every_cell():
    ref = {"cell_a": "1", "cell_b": "2", "summary.csv": "3"}
    got = dict(ref, **{"summary.csv": "4"})
    failed, _ = gate.check([got], [set()], ["cell_a", "cell_b"], ref)
    assert failed == 2


def test_gate_counts_raised_operations_and_stale_reference():
    ref = _scenario_outputs()
    got = {"s100w0/predictive": ref["s100w0/predictive"]}
    failed, _ = gate.check([got], [{"s100w0/realtime"}], sorted(ref), ref)
    assert failed == 1
    failed, reasons = gate.check([ref], [set()], sorted(ref), {"other": 1})
    assert failed == 2 and "reference" in reasons[0]


def test_patcher_restores_every_name_and_survives_absent_targets(capsys):
    targets = tracing.TARGETS + (
        tracing.Target("twinroute.routing", "route_that_was_removed", "x", "routing"),
        tracing.Target("twinroute.no_such_module", "f", "y", "routing"),
        tracing.Target("twinroute.prediction", "NoSuchClass.extrapolate", "z", "prediction"),
    )
    before = {
        (t.module, t.attr): tracing.Patcher._resolve(t)[0].__dict__[t.attr.split(".")[-1]]
        for t in tracing.TARGETS
    }
    with tracing.Patcher(tracing.Tracer(), targets) as patcher:
        assert engine.build_topology is not before[("twinroute.engine", "build_topology")]
        assert routing.shortest_route.__wrapped__ is before[("twinroute.routing", "shortest_route")]
    assert len(patcher.absent) == 3
    assert "absent" in capsys.readouterr().err
    for t in tracing.TARGETS:
        owner, name = tracing.Patcher._resolve(t)
        assert owner.__dict__[name] is before[(t.module, t.attr)]
    assert topology.blockage_count_matrix.__module__ == "twinroute.geometry"
    assert mobility.advance_traffic is before[("twinroute.mobility", "advance_traffic")]


def test_broken_counter_is_disabled_not_fatal(capsys):
    t = tracing.Tracer()

    def bad_count(args, kwargs, result, counts):
        raise AttributeError("result changed shape")

    wrapped = t.span("f", "routing", lambda: 7, bad_count)
    assert wrapped() == 7 and wrapped() == 7
    assert t.calls("f") == 2
    assert capsys.readouterr().err.count("disabled") == 1


def _history(vid, xs):
    return [VehicleState(NodeId.vehicle(vid), (x, 1.0, 0.0), 0.3, 12.0, (4.5, 1.8, 1.5), 1.6, True) for x in xs]


def test_learned_model_groups_rows_by_vehicle_in_first_seen_order():
    rows = [
        "0,0.0,v7,1,0.0,0.0,0.0,10.0",
        "0,0.0,v3,1,5.0,5.0,1.5707963267948966,2.0",
        "1,0.1,v7,1,1.0,0.0,0.0,10.0",
    ]
    out = [r.split(",") for r in learned_model.forecast(rows, 3, 0.1)]
    assert [r[2] for r in out] == ["v7"] * 3 + ["v3"] * 3
    assert [int(r[0]) for r in out] == [2, 3, 4, 1, 2, 3]
    assert float(out[2][4]) == 1.0 + 10.0 * 3 * 0.1


def test_learned_model_matches_builtin_constant_velocity():
    history = _history(4, (0.0, 1.2))
    cmd = (sys.executable, "-S", str(wl.MODEL))
    external = predict(history, horizon=1.0, dt=0.1, predictor=LearnedPredictor(cmd))
    builtin = predict(history, horizon=1.0, dt=0.1, predictor=ConstantVelocityPredictor())
    assert external.states == builtin.states


def test_learned_model_script_reads_stdin():
    proc = subprocess.run(
        [sys.executable, "-S", str(wl.MODEL), "2", "0.5"],
        input="0,0.0,v1,1,0.0,0.0,0.0,4.0\n0,0.0,v2,0,1.0,1.0,0.0,0.0\n",
        capture_output=True, text=True, check=True,
    )
    assert [ln.split(",")[2] for ln in proc.stdout.splitlines()] == ["v1", "v1", "v2", "v2"]


def test_window_matches_the_generated_stream():
    spec = wl.Scenario("t", 8, 0.5, 1, ("realtime",), "constant_velocity",
                       streams=1, windows=2, scored_steps=3, gap_steps=5)
    runner = wl.ScenarioRunner(spec, seed=1, seconds=wl.NOMINAL_SECONDS)
    base = runner.variants(100)["realtime"]
    for j in (0, 1, 1):  # a repeated window replays from its cached start
        start = wl.WARM_STEPS + j * spec.gap_steps
        expected = list(itertools.islice(mobility.snapshot_stream(base), start, start + 4))
        assert list(runner.window(base, j)) == expected


def test_timed_steps_records_one_time_per_scored_snapshot():
    clock = FakeClock()
    sink: list[int] = []
    marks = []
    gen = wl.timed_steps(iter("abcd"), sink, on_first=lambda: marks.append(clock.now), clock=clock)
    got = []
    for item in gen:
        got.append(item)
        clock.now += 10
    assert got == list("abcd")
    assert sink == [10, 10, 10]  # b, c, d are scored; a only seeds history
    assert marks == [10]
