"""twinroute benchmark: one command, one workload per invocation.

    python3 bench/run.py --workload paper_mixed30 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload in BENCHMARK.json

Run from the repository root. Every measurement happens in a child
process (bench/worker.py) that imports twinroute from ./src:

- ``--trace 0``: several set-up probes, then one measured run. Prints the
  end-to-end metrics.
- ``--trace 1``: one traced run. Prints the per-layer metrics and the
  tracing overhead.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every operation
passed the output gate. ``--update-reference`` rewrites the committed
reference outputs from a default-seed run instead (only do this when an
output change is intended).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("paper_mixed30", "dense_connected60", "learned_predictive", "sweep_small")
SETUP_PROBES = 5
TIMEOUT_S = 170.0
WORKDIR = ROOT / ".bench_build" / "twinroute"


def fail(msg: str, code: int = 2) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def worker_cmd(mode: str, args, tag: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(WORKDIR / f"{tag}-{os.getpid()}"),
    ]


def setup_time(args, deadline: float) -> tuple[float, float]:
    """Seconds from starting a worker to its first scored step, and the
    host factor the worker measured right after."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd("setup", args, "setup"), stdout=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        factor = proc.stdout.readline()
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or not factor.strip():
        fail("set-up probe did not reach its first scored step", 1)
    return elapsed, float(factor)


def run_worker(mode: str, args, deadline: float) -> dict:
    try:
        proc = subprocess.run(worker_cmd(mode, args, mode), stdout=subprocess.PIPE,
                              env=child_env(), text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded {TIMEOUT_S:.0f} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} worker exited with {proc.returncode}", 1)
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    probes = [setup_time(args, deadline) for _ in range(SETUP_PROBES)]
    setups = [elapsed / factor for elapsed, factor in probes]
    result = run_worker("measure", args, deadline)
    steps = result["steps"]
    metrics = {
        "scored_steps_per_s": metric(result["scored_steps_per_s"], "1/s"),
        "step_ms_p50": metric(steps["p50"], "ms"),
        "step_ms_tail": metric(steps["tail"], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    samples = {
        "scored_steps_per_s": f"{result['pairs']} pairs/pass, median of {result['passes']} passes",
        "step_ms_p50": f"n={steps['samples']} steps, per-step median of {result['passes']} passes",
        "step_ms_tail": f"p{steps['tail_percentile']:.4g}, n={steps['samples']}",
        "setup_s": f"median of n={len(setups)}",
        "peak_rss_mb": "n=1",
    }
    raw = result["raw_steps"]
    print(f"host factor {result['host_factor']:.3f} (1 = reference speed); raw host figures: "
          f"{result['raw_scored_steps_per_s']:.6g} 1/s, p50 {raw['p50']:.6g} ms, "
          f"tail {raw['tail']:.6g} ms, setup {statistics.median(p[0] for p in probes):.6g} s")
    print(f"pass walls (s): {', '.join(f'{w:.3f}' for w in result['pass_walls_s'])}")
    return result, {"metrics": metrics, "samples": samples}


def declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under ``kind``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    result = run_worker("trace", args, deadline)
    layers = result["layers"]
    metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in declared("per_layer")}
    print(f"traced pass {result['traced_wall_s']:.3f} s, untraced {result['untraced_wall_s']:.3f} s "
          f"(scaled, faster of 2 each), overhead {layers['trace.overhead_ratio']:+.1%}")
    for name in result["absent"]:
        print(f"absent trace target: {name}")
    return result, {"metrics": metrics, "samples": {}}


def update_reference(args, deadline: float) -> None:
    args.seed = 1
    result = run_worker("measure", args, deadline)
    path = HERE / "reference.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[args.workload] = result["outputs"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(result['outputs'])} reference outputs for {args.workload}")


def run_all(args) -> None:
    """Run every workload BENCHMARK.json names, each in its own process."""
    codes = []
    for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd).returncode)
    sys.exit(max(codes))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()
    deadline = time.perf_counter() + TIMEOUT_S
    if not (ROOT / "src" / "twinroute" / "__init__.py").is_file():
        fail("run from the repository root: src/twinroute is missing")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("run from the repository root: BENCHMARK.json is missing")
    if args.seed < 1 or args.seconds <= 0:
        fail("--seed must be >= 1 and --seconds > 0")
    if args.workload == "all":
        run_all(args)
    if args.update_reference:
        update_reference(args, deadline)
        return

    result, report = (per_layer if args.trace else end_to_end)(args, deadline)
    wanted = [m["name"] for m in declared("per_layer" if args.trace else "end_to_end")]
    if sorted(report["metrics"]) != sorted(wanted):
        fail(f"metrics do not match BENCHMARK.json: {sorted(report['metrics'])} vs {sorted(wanted)}", 1)
    for name, m in report["metrics"].items():
        note = report["samples"].get(name, "")
        print(f"{args.workload:<20} {name:<32} {m['value']:>14.6g} {m['unit']:<6} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload:<20} {'failed_ratio':<32} {failed / attempted:>14.6g} ratio  "
          f"{failed}/{attempted} operations")
    checked = "reference and pass-to-pass" if result["reference_checked"] else "pass-to-pass"
    print(f"output gate ({checked}): {'PASS' if not failed else 'FAIL'}")
    for reason in result["reasons"]:
        print(f"  {reason}")
    for key, digest in result["digests"].items():
        print(f"digest {args.workload} seed={args.seed} {key} {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
