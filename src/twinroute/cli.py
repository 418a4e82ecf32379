"""Command-line entry point.

Subcommands: run (single scenario), sweep (experiment matrix), validate
(configuration check), replay (external snapshot trace, streamed through
the pipeline). Data goes to files and stdout; progress and diagnostics go
to stderr. Exit codes: 0 success, 2 configuration/validation error, or a
trace that cannot be read or has a bad row (found mid-replay too), 3
runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config, validate_config
from .engine import ConfigError, log, run_single
from .experiment import SweepCell, SweepCellError, load_sweep_spec, run_sweep, write_cell, write_summary
from .metrics import SUMMARY_HEADER
from .mobility import snapshot_stream
from .model import Strategy
from .trace import TraceError, read_trace, tee_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    sweep_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="parallel traffic worlds; each runs every strategy of one count, fraction and seed",
    )

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("config", help="scenario YAML file")

    replay_p = sub.add_parser("replay", help="score an external snapshot trace")
    replay_p.add_argument(
        "trace",
        help="trace CSV (timestep,sim_time,id,connected,x,y,heading,speed"
        "[,length,width,height,antenna_height])",
    )
    replay_p.add_argument("config", help="scenario YAML file (channel, budget, strategy)")
    replay_p.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
    replay_p.add_argument("--out-dir", default="twinroute-replay", help="output directory")

    return parser


def _load_checked(path: str, seed: int | None, strategy: str | None):
    try:
        cfg = load_config(path)
    except (OSError, ValueError) as exc:
        log(f"configuration error: {exc}")
        return None
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


def _write_single(result, cfg, out_dir: str) -> None:
    """Write the run's detail file and one-row summary.csv; print that row
    and log the reliability, with the degraded forecast tracks of a
    predictive run."""
    row = write_cell(result, SweepCell(cfg), out_dir)
    write_summary([row], out_dir)
    sys.stdout.write(SUMMARY_HEADER)
    sys.stdout.write(row)
    line = f"reliability {result.reliability:.6f} over {len(result.outcomes)} timesteps"
    if cfg.strategy is Strategy.PREDICTIVE:
        line += f", {result.prediction_fallbacks} degraded forecast tracks"
    log(line)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_checked(args.config, args.seed, args.strategy)
    if cfg is None:
        return EXIT_CONFIG
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def dump(name: str, wanted: bool):
        return open(out / name, "w", encoding="utf-8", newline="") if wanted else None

    route_f = dump("routes.csv", args.dump_routes)
    topo_f = dump("topology.csv", args.dump_topology)
    trace_f = dump("trace.csv", args.dump_trace)
    try:
        # rows are written as the run pulls each snapshot, so no step is held
        snapshots = None if trace_f is None else tee_trace(snapshot_stream(cfg), trace_f, cfg.dt)
        result = run_single(cfg, snapshots, route_dump=route_f, topology_dump=topo_f)
    finally:
        for f in (route_f, topo_f, trace_f):
            if f:
                f.close()
    _write_single(result, cfg, args.out_dir)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = load_sweep_spec(args.spec)
    except (OSError, ValueError) as exc:
        log(f"sweep spec error: {exc}")
        return EXIT_CONFIG
    rows = run_sweep(spec, args.out_dir, jobs=args.jobs)
    log(f"wrote {len(rows)} summary rows to {args.out_dir}/summary.csv")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if _load_checked(args.config, None, None) is None:
        return EXIT_CONFIG
    print("configuration valid")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = _load_checked(args.config, None, args.strategy)
    if cfg is None:
        return EXIT_CONFIG
    try:
        # the reader names the line of a byte that is not UTF-8
        with open(args.trace, "r", encoding="utf-8", errors="surrogateescape") as f:
            result = run_single(cfg, read_trace(f, cfg))
    except (OSError, TraceError) as exc:  # this block reads no file but the trace
        log(f"{args.trace}: {exc}")
        return EXIT_CONFIG
    _write_single(result, cfg, args.out_dir)  # a failed replay leaves no directory
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
    except SweepCellError as exc:
        log(str(exc))
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failures map to exit code 3
        log(f"runtime error: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
