"""One benchmark process: set-up probe, measured run, or traced run.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON object as
its last stdout line. Modes:

- ``setup``: builds the workload, prints ``READY`` at the first scored step
  (for the sweep, when ``run_sweep`` is entered) and exits at once.
- ``measure``: the untraced passes that give the end-to-end metrics.
- ``trace``: untraced and traced passes, alternated, that give the
  per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import gate
import tracing
import workloads as wl


def signal_ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    sys.stdout.write(f"{wl.host_factor(wl.calibrate())!r}\n")
    sys.stdout.flush()
    os._exit(0)


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def digests(workload: str, outputs: dict) -> dict[str, str]:
    """Short per-variant (or per-file) digests printed for every seed."""
    if workload == "sweep_small":
        cells = {k: v for k, v in outputs.items() if not k.endswith(".csv")}
        return {
            "summary.csv": outputs.get("summary.csv", ""),
            "plot_means.csv": outputs.get("plot_means.csv", ""),
            "detail/*": hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest(),
        }
    out = {}
    for variant in sorted({op.split("/")[1] for op in outputs}):
        runs = {op: v for op, v in sorted(outputs.items()) if op.endswith("/" + variant)}
        sat = sum(v["satisfied"] for v in runs.values())
        tot = sum(v["total"] for v in runs.values())
        blob = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
        out[variant] = f"{blob} reliability={sat / tot!r} satisfied={sat} total={tot}"
    return out


def make_runner(args, workdir: Path):
    spec = wl.WORKLOADS[args.workload]
    if isinstance(spec, wl.Sweep):
        return wl.SweepRunner(spec, args.seed, args.seconds, workdir)
    return wl.ScenarioRunner(spec, args.seed, args.seconds)


def run_pass(runner, sink: Path | None = None):
    if isinstance(runner, wl.SweepRunner):
        return runner.run_pass(step_sink=sink)
    return runner.run_pass()


def gate_result(args, runner, passes) -> dict:
    reference = gate.load_reference(args.workload) if args.seed == gate.DEFAULT_SEED else None
    failed, reasons = gate.check(
        [p.outputs for p in passes], [p.failed for p in passes], runner.operations(), reference
    )
    return {
        "attempted": len(runner.operations()) * len(passes),
        "failed": failed,
        "reasons": reasons,
        "reference_checked": reference is not None,
        "outputs": passes[0].outputs,
        "digests": digests(args.workload, passes[0].outputs),
    }


def measure(args, runner, workdir: Path) -> dict:
    sweep = isinstance(runner, wl.SweepRunner)
    sink = workdir / "steps"
    sink.mkdir()
    passes = [run_pass(runner, sink) for _ in range(runner.passes)]
    raw = gate.median_of_passes([p.step_ns for p in passes])
    scaled = gate.median_of_passes([p.scaled_ns for p in passes])
    if sweep:
        raw_s = statistics.median(p.wall_ns for p in passes) / 1e9
        scaled_s = statistics.median(p.scaled_wall_ns for p in passes) / 1e9
    else:
        raw_s, scaled_s = sum(raw) / 1e9, sum(scaled) / 1e9
    result = gate_result(args, runner, passes)
    result.update(
        host_factor=statistics.median(f for p in passes for f in p.factors),
        raw_steps=gate.latency_summary([ns / 1e6 for ns in raw]),
        raw_scored_steps_per_s=passes[0].pairs / raw_s,
        steps=gate.latency_summary([ns / 1e6 for ns in scaled]),
        scored_steps_per_s=passes[0].pairs / scaled_s,
        pairs=passes[0].pairs,
        passes=len(passes),
        pass_walls_s=[p.wall_ns / 1e9 for p in passes],
        peak_rss_mb=peak_rss_mb(include_children=sweep),
    )
    return result


def layer_metrics(t: tracing.Tracer, wall_ns: int, sweep_wall_ns: int | None) -> dict[str, float]:
    c = t.counts
    ms = lambda ns: ns / 1e6  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "mobility.calls": t.calls("mobility.advance_traffic"),
        "mobility.vehicle_steps": c["mobility.vehicle_steps"],
        "geometry.calls": t.calls("geometry.blockage_count_matrix"),
        "geometry.pair_box_tests": c["geometry.pair_box_tests"],
        "geometry.blocked_pairs": c["geometry.blocked_pairs"],
        "topology.builds_truth": t.calls("topology.build_truth"),
        "topology.builds_forecast": t.calls("topology.build_forecast"),
        "topology.candidate_pairs": c["topology.candidate_pairs"],
        "topology.edges": c["topology.edges"],
        "topology.edges_per_pair": ratio(c["topology.edges"], c["topology.candidate_pairs"]),
        "routing.sources": t.calls("routing.shortest_route"),
        "routing.routed_ratio": ratio(c["routing.routed"], t.calls("routing.shortest_route")),
        "routing.mean_hops": ratio(c["routing.hops"], c["routing.routed"]),
        "routing.tables": c["routing.tables"],
        "routing.plan_self_ms": ms(t.self_ns("routing.route_predictive")),
        "prediction.calls": t.calls("prediction.predict"),
        "prediction.external_calls": t.calls("prediction.external"),
        "prediction.degraded": c["prediction.degraded"],
        "metrics.checks": t.calls("metrics.score_route"),
        "metrics.valid_ratio": ratio(c["metrics.valid"], t.calls("metrics.score_route")),
    }
    layered = 0
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = ms(t.layer_self_ns(layer))
        layered += t.layer_self_ns(layer)
    m["engine.self_ms"] = ms(wall_ns - layered)
    cells = t.durations.get("experiment.run_single", [])
    m["experiment.cells"] = len(cells)
    m["experiment.traffic_generations"] = t.calls("mobility.init_traffic")
    m["experiment.cell_ms_p50"] = ms(statistics.median(cells)) if cells else 0.0
    m["experiment.worker_busy_ratio"] = (
        ratio(sum(cells), wl.SWEEP_JOBS * sweep_wall_ns) if sweep_wall_ns else 0.0
    )
    return m


def trace(args, runner, workdir: Path) -> dict:
    """Alternate untraced and traced passes; report the faster of each."""
    sweep = isinstance(runner, wl.SweepRunner)
    plain, traced = [], []
    for _ in range(2):
        plain.append(run_pass(runner))
        sink = workdir / f"trace-{len(traced)}"
        sink.mkdir()
        tracer = tracing.Tracer(sink_dir=sink)
        with tracing.Patcher(tracer) as patcher:
            result = run_pass(runner)
        tracer.merge_sink()
        traced.append((result, tracer, patcher.absent))
    result, tracer, absent = min(traced, key=lambda r: r[0].wall_ns)
    wall = tracer.spans.get("experiment.run_single", [0, 0])[1] if sweep else result.wall_ns
    metrics = layer_metrics(tracer, wall, result.wall_ns if sweep else None)
    counts_a = layer_metrics(traced[0][1], 0, None)
    counts_b = layer_metrics(traced[1][1], 0, None)
    unstable = [
        k for k in counts_a
        if "_ms" not in k and not k.endswith("_ratio") and counts_a[k] != counts_b[k]
    ]
    if unstable:
        tracing.warn(f"counts differ between traced passes: {unstable}")
    metrics["trace.overhead_ratio"] = (
        min(r.scaled_wall_ns for r, _, _ in traced) / min(p.scaled_wall_ns for p in plain) - 1.0
    )
    metrics["trace.absent_targets"] = len(absent)
    out = gate_result(args, runner, plain + [r for r, _, _ in traced])
    out.update(layers=metrics, absent=absent, unstable_counts=unstable,
               traced_wall_s=min(r.scaled_wall_ns for r, _, _ in traced) / 1e9,
               untraced_wall_s=min(p.scaled_wall_ns for p in plain) / 1e9)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    runner = make_runner(args, workdir)
    try:
        if args.mode == "setup":
            if isinstance(runner, wl.SweepRunner):
                runner.run_pass(on_enter=signal_ready)
            else:
                runner.run_pass(on_first=signal_ready)
            raise SystemExit("setup probe never reached its first scored step")
        result = measure(args, runner, workdir) if args.mode == "measure" else trace(args, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
