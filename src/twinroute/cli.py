"""Command-line entry point.

Subcommands: run (single scenario), sweep (experiment matrix), validate
(configuration check), replay (external snapshot trace through the
pipeline). Data goes to files and stdout; progress and diagnostics go to
stderr. Exit codes: 0 success, 2 configuration/validation error, 3
runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config, validate_config
from .engine import ConfigError, log, run_replay, run_variants, write_run_outputs
from .experiment import SweepCellError, load_sweep_spec, run_sweep
from .metrics import SUMMARY_HEADER, summary_row
from .mobility import read_trace, snapshot_stream, write_trace
from .model import Strategy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinroute",
        description="digital-twin multi-hop mmWave V2X routing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its CSVs")
    run_p.add_argument("config", help="scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=None,
        help="override the scenario strategy",
    )
    run_p.add_argument("--out-dir", default="twinroute-out", help="output directory")
    run_p.add_argument("--dump-routes", action="store_true", help="also write routes.csv")
    run_p.add_argument(
        "--dump-topology", action="store_true", help="also write topology.csv"
    )
    run_p.add_argument(
        "--dump-trace",
        action="store_true",
        help="also write trace.csv (replayable snapshot stream)",
    )

    sweep_p = sub.add_parser("sweep", help="run an experiment matrix from a sweep spec")
    sweep_p.add_argument("spec", help="sweep YAML file")
    sweep_p.add_argument("--out-dir", default="twinroute-sweep", help="output directory")
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel cells")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("config", help="scenario YAML file")

    replay_p = sub.add_parser("replay", help="score an external snapshot trace")
    replay_p.add_argument("trace", help="trace CSV (timestep,sim_time,id,connected,x,y,heading,speed)")
    replay_p.add_argument("config", help="scenario YAML file (channel, budget, strategy)")
    replay_p.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
    replay_p.add_argument("--out-dir", default="twinroute-replay", help="output directory")

    return parser


def _load_checked(path: str, seed: int | None, strategy: str | None):
    cfg = load_config(path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if strategy is not None:
        cfg = dataclasses.replace(cfg, strategy=Strategy(strategy))
    report = validate_config(cfg)
    if not report.ok:
        for line in str(report).splitlines():
            log(line)
        return None
    return cfg


def _write_single(result, cfg, out_dir: str) -> str:
    cell_id = f"{cfg.strategy.value}_n{cfg.vehicle_count}_f{cfg.connected_fraction:g}_s{cfg.seed}"
    write_run_outputs(result, cfg, out_dir, cell_id)
    row = summary_row(result, cfg.vehicle_count, cfg.connected_fraction, cfg.seed)
    with open(Path(out_dir) / "summary.csv", "w", encoding="utf-8", newline="") as f:
        f.write(SUMMARY_HEADER)
        f.write(row)
    return row


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_checked(args.config, args.seed, args.strategy)
    if cfg is None:
        return EXIT_CONFIG
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    snapshots = None
    if args.dump_trace:
        # materialize the stream once so the run and the trace agree exactly
        snapshots = list(snapshot_stream(cfg))
        with open(out / "trace.csv", "w", encoding="utf-8", newline="") as f:
            write_trace(snapshots, f)

    route_f = open(out / "routes.csv", "w", encoding="utf-8", newline="") if args.dump_routes else None
    topo_f = open(out / "topology.csv", "w", encoding="utf-8", newline="") if args.dump_topology else None
    try:
        result = run_variants(
            {"run": cfg}, snapshots=snapshots, route_dump=route_f, topology_dump=topo_f
        )["run"]
    finally:
        for f in (route_f, topo_f):
            if f:
                f.close()
    row = _write_single(result, cfg, args.out_dir)
    sys.stdout.write(SUMMARY_HEADER)
    sys.stdout.write(row)
    log(f"reliability {result.reliability:.6f} over {len(result.outcomes)} timesteps")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = load_sweep_spec(args.spec)
    except (OSError, ValueError) as exc:
        log(f"sweep spec error: {exc}")
        return EXIT_CONFIG
    report = spec.validate()
    if not report.ok:
        for line in str(report).splitlines():
            log(line)
        return EXIT_CONFIG
    base_report = validate_config(spec.base)
    if not base_report.ok:
        for line in str(base_report).splitlines():
            log(line)
        return EXIT_CONFIG
    rows = run_sweep(spec, args.out_dir, jobs=args.jobs)
    log(f"wrote {len(rows)} summary rows to {args.out_dir}/summary.csv")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        log(f"configuration error: {exc}")
        return EXIT_CONFIG
    report = validate_config(cfg)
    if report.ok:
        print("configuration valid")
        return EXIT_OK
    for line in str(report).splitlines():
        log(line)
    return EXIT_CONFIG


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = _load_checked(args.config, None, args.strategy)
    if cfg is None:
        return EXIT_CONFIG
    with open(args.trace, "r", encoding="utf-8") as f:
        snapshots = read_trace(f, cfg.intersection.rsu_height, cfg.vehicle_mix[0])
    if not snapshots:
        log("trace contains no snapshots")
        return EXIT_CONFIG
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    result = run_replay(cfg, snapshots)
    row = _write_single(result, cfg, args.out_dir)
    sys.stdout.write(SUMMARY_HEADER)
    sys.stdout.write(row)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        for line in str(exc).splitlines():
            log(line)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        log(f"missing file: {exc}")
        return EXIT_CONFIG
    except SweepCellError as exc:
        log(str(exc))
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failures map to exit code 3
        log(f"runtime error: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
