from __future__ import annotations

import dataclasses
import io
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twinroute import cli, engine, experiment, mobility
from twinroute.cli import main
from twinroute.config import default_config, load_config, save_config
from twinroute.experiment import SweepCellError, load_sweep_spec, run_sweep
from twinroute.mobility import snapshot_stream
from twinroute.model import Strategy
from twinroute.trace import tee_trace

from conftest import detail_counts
from oracles import oracle_reliability

REPO = Path(__file__).resolve().parent.parent


def write_small_config(path: Path, **overrides) -> Path:
    cfg = default_config(duration=10.0, vehicle_count=6, connected_fraction=0.5, seed=3)
    import dataclasses

    cfg = dataclasses.replace(cfg, **overrides)
    save_config(cfg, path)
    return path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "twinroute.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_validate_ok(tmp_path):
    cfg = write_small_config(tmp_path / "ok.yaml")
    proc = run_cli("validate", str(cfg))
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_validate_reports_field_paths(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dt: 0\nconnected_fraction: 1.3\n", encoding="utf-8")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2
    assert "dt" in proc.stderr
    assert "connected_fraction" in proc.stderr


def test_validate_unknown_key_exits_2(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("vehicle_cout: 30\n", encoding="utf-8")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2
    assert "vehicle_cout" in proc.stderr


VEHICLE = "{length: 4.5, width: 1.8, height: 1.5, antenna_height: 1.6, weight: 1.0}"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "channel:\n  classes:\n    - {max_blockers: null, gamma: 68.0}\n",
            "channel.classes[0].rho: required",
            id="class-without-rho",
        ),
        pytest.param("intersection: 5\n", "intersection: must be a mapping", id="scalar-block"),
        pytest.param("duration: abc\n", "duration: must be a number", id="text-number"),
        # a quoted exponent float stays a string
        pytest.param("dt: '1e-2'\n", "dt: must be a number, got '1e-2'", id="quoted-exponent"),
        pytest.param(
            f"vehicle_mix:\n  - {VEHICLE}\n", "vehicle_mix[0].name: required", id="mix-without-name"
        ),
        pytest.param("duration: .inf\n", "duration: must be finite", id="inf"),
        pytest.param("duration: .nan\n", "duration: must be finite", id="nan"),
        pytest.param("seed: 1.7\n", "seed: must be an integer", id="fractional-int"),
        pytest.param("vehicle_count: true\n", "vehicle_count: must be an integer", id="bool-int"),
        # a scenario with no connected vehicle has nothing to score
        pytest.param("vehicle_count: 0\n", "vehicle_count: must be >= 1", id="no-vehicles"),
        pytest.param(
            "connected_fraction: 0.0\n",
            "connected_fraction: must be within (0, 1]",
            id="none-connected",
        ),
    ],
)
def test_validate_malformed_value_exits_2_with_field_path(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_run_writes_summary_and_detail(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    proc = run_cli("run", str(cfg), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = (out / "summary.csv").read_text()
    assert summary.startswith("strategy,vehicle_count,connected_fraction,seed,reliability")
    detail_files = list((out / "detail").glob("*.csv"))
    assert len(detail_files) == 1
    # summary reliability reproducible from the detail rows
    reported = float(summary.splitlines()[1].split(",")[4])
    with open(detail_files[0]) as f:
        assert oracle_reliability(detail_counts(f)) == reported
    # data on stdout, progress on stderr
    assert "reliability" in proc.stderr
    assert summary.splitlines()[1] in proc.stdout


def test_run_invalid_config_exits_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dt: 0\n", encoding="utf-8")
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 2


def test_run_missing_file_exits_2(tmp_path):
    proc = run_cli("run", str(tmp_path / "nope.yaml"))
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text", ["", "# comments only\n", "---\n"], ids=["empty", "comment", "marker"])
def test_empty_config_document_exits_2(tmp_path, command, text):
    path = tmp_path / "empty.yaml"
    path.write_text(text, encoding="utf-8")
    proc = run_cli(command, str(path), *(["--out-dir", str(tmp_path / "x")] if command == "run" else []))
    assert proc.returncode == 2, proc.stderr
    assert "configuration root: must be a mapping" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_run_malformed_config_exits_2_with_field_path(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("vehicle_cout: 30\n", encoding="utf-8")
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert "vehicle_cout" in proc.stderr


YAML_COMMANDS = ["validate", "run", "replay", "sweep-spec", "sweep-base"]


@pytest.mark.parametrize(
    "command, content, messages",
    [pytest.param(c, b"seed: [1\n", ("malformed YAML", "line 2, column"), id=c) for c in YAML_COMMANDS]
    + [
        pytest.param(c, b"\xff\xfe", ("not UTF-8", "byte 0xff in position"), id=f"{c}-not-utf8")
        for c in YAML_COMMANDS
    ]
    # the bad byte lies past the first chunk a text-mode reader decodes:
    # the message gives its offset in the file and its line
    + [
        pytest.param(
            "validate",
            b"#" + b"x" * 9998 + b"\nseed: 1\n\xff",
            ("not UTF-8: line 3: ", "byte 0xff in position 10008: "),
            id="validate-not-utf8-past-the-first-chunk",
        )
    ],
)
def test_malformed_yaml_exits_2_naming_the_line(tmp_path, command, content, messages):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(content)
    out = ["--out-dir", str(tmp_path / "x")]
    spec = tmp_path / "sweep.yaml"
    if command == "sweep-spec":
        write_small_config(tmp_path / "base.yaml")
        spec.write_bytes(b"base_config: base.yaml\n" + content)
        bad = spec
    else:
        spec.write_text("base_config: bad.yaml\n", encoding="utf-8")
    args = {
        "validate": ["validate", str(bad)],
        "run": ["run", str(bad), *out],
        "replay": ["replay", str(tmp_path / "trace.csv"), str(bad), *out],
        "sweep-spec": ["sweep", str(spec), *out],
        "sweep-base": ["sweep", str(spec), *out],
    }[command]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert all(m in proc.stderr for m in (str(bad), *messages)), proc.stderr
    assert not (tmp_path / "x").exists()


def test_run_strategy_and_seed_overrides(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    proc = run_cli(
        "run", str(cfg), "--strategy", "conventional", "--seed", "9", "--out-dir", str(out)
    )
    assert proc.returncode == 0
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.startswith("conventional,")
    assert row.split(",")[3] == "9"


def test_run_dump_flags(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    proc = run_cli(
        "run", str(cfg), "--out-dir", str(out), "--dump-routes", "--dump-topology"
    )
    assert proc.returncode == 0
    assert (out / "routes.csv").read_text().startswith("timestep,vehicle,hops,valid")
    assert (out / "topology.csv").read_text().startswith("timestep,node_a,node_b")


RUN_RELIABILITY = {
    "realtime": "0.9931459904043866",
    "predictive": "0.9120402101896276",
    "conventional": "0.7564541923692026",
}


@pytest.mark.parametrize("strategy", list(RUN_RELIABILITY))
def test_run_dump_trace_feeds_replay(tmp_path, strategy):
    # trucks and vans must replay as trucks and vans, or their sight lines
    # clear; vehicle-free steps must replay too, or the epochs shift
    cfg = tmp_path / "s.yaml"
    save_config(default_config(duration=30.0, vehicle_count=30, connected_fraction=0.5, seed=1), cfg)
    out = tmp_path / "out"
    proc = run_cli("run", str(cfg), "--strategy", strategy, "--out-dir", str(out), "--dump-trace")
    assert proc.returncode == 0, proc.stderr
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[:2] == [
        "timestep,sim_time,id,connected,x,y,heading,speed,length,width,height,antenna_height",
        "0,0.0",
    ]
    replay = run_cli(
        "replay", str(out / "trace.csv"), str(cfg), "--strategy", strategy,
        "--out-dir", str(tmp_path / "r"),
    )
    assert replay.returncode == 0, replay.stderr
    ran, replayed = (p.stdout.splitlines()[1] for p in (proc, replay))
    assert ran == replayed
    assert ran.split(",")[4] == RUN_RELIABILITY[strategy]


@pytest.mark.parametrize(
    "model, degraded",
    [("print(1)", r"[1-9]\d*"), (None, "0")],
    ids=["broken", "working"],
)
def test_run_and_replay_log_the_degraded_forecast_tracks(tmp_path, model, degraded):
    # a model that fails holds its vehicles; the run still succeeds, so the
    # count of held tracks on stderr is the only sign of it
    command = ("-c", model) if model else (str(REPO / "bench" / "learned_model.py"),)
    prediction = dataclasses.replace(
        default_config().prediction, predictor="learned", learned_command=(sys.executable, *command)
    )
    cfg = write_small_config(tmp_path / "s.yaml", strategy=Strategy.PREDICTIVE, prediction=prediction)
    out = tmp_path / "out"
    proc = run_cli("run", str(cfg), "--out-dir", str(out), "--dump-trace")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert re.fullmatch(rf"reliability [0-9.]+ over 100 timesteps, {degraded} degraded forecast tracks", line)
    replay = run_cli("replay", str(out / "trace.csv"), str(cfg), "--out-dir", str(tmp_path / "r"))
    assert replay.returncode == 0, replay.stderr
    assert replay.stderr.splitlines() == [line]
    realtime = run_cli(
        "replay", str(out / "trace.csv"), str(cfg), "--strategy", "realtime",
        "--out-dir", str(tmp_path / "rt"),
    )
    assert re.fullmatch(r"reliability [0-9.]+ over 100 timesteps", realtime.stderr.strip())


def test_run_dump_trace_streams_the_snapshots(tmp_path, monkeypatch):
    # the trace is written as the run pulls each snapshot, so memory does
    # not grow with the duration: when snapshot k is handed out, the run has
    # already built the truth graphs of the scored steps before it
    builds = []
    build_topologies = engine.build_topologies

    def counting_build(snapshot, timesteps, *args):
        builds.extend(timesteps)
        return build_topologies(snapshot, timesteps, *args)

    seen = []

    def spy_stream(config):
        for snap in snapshot_stream(config):
            seen.append(len(builds))
            yield snap

    monkeypatch.setattr(engine, "build_topologies", counting_build)
    monkeypatch.setattr(cli, "snapshot_stream", spy_stream)
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--dump-trace"]) == 0
    assert seen == [0] + list(range(len(seen) - 1))
    assert len(builds) == len(seen) - 1
    whole = io.StringIO()
    config = load_config(cfg)
    list(tee_trace(snapshot_stream(config), whole, config.dt))
    assert (out / "trace.csv").read_text() == whole.getvalue()


def test_byte_identical_reruns(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(cfg), "--out-dir", str(out_a)).returncode == 0
    assert run_cli("run", str(cfg), "--out-dir", str(out_b)).returncode == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    detail_a = sorted((out_a / "detail").glob("*.csv"))[0]
    detail_b = sorted((out_b / "detail").glob("*.csv"))[0]
    assert detail_a.read_bytes() == detail_b.read_bytes()


def sweep_spec(tmp_path, seeds="[1, 2]", counts="[5]", strategies="[realtime, conventional]"):
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "base_config: base.yaml\n"
        f"vehicle_counts: {counts}\n"
        "connected_fractions: [1.0]\n"
        f"strategies: {strategies}\n"
        f"seeds: {seeds}\n",
        encoding="utf-8",
    )
    return spec


def test_sweep_row_cardinality_and_plots(tmp_path):
    spec = sweep_spec(tmp_path)
    out = tmp_path / "sweep-out"
    proc = run_cli("sweep", str(spec), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 * 1 * 2 * 2  # header + counts*fractions*strategies*seeds
    assert len(list((out / "detail").glob("*.csv"))) == 4
    assert (out / "plots.gp").exists()
    assert (out / "plot_means.csv").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    spec = sweep_spec(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli("sweep", str(spec), "--out-dir", str(out1)).returncode == 0
    assert run_cli("sweep", str(spec), "--out-dir", str(out2), "--jobs", "2").returncode == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_sweep_empty_seeds_rejected(tmp_path):
    spec = sweep_spec(tmp_path, seeds="[]")
    proc = run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "seeds" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_2(tmp_path, jobs):
    spec = sweep_spec(tmp_path)
    out = tmp_path / "x"
    proc = run_cli("sweep", str(spec), "--out-dir", str(out), "--jobs", jobs)
    assert proc.returncode == 2
    assert f"--jobs: must be >= 1, got {jobs}" in proc.stderr
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        run_sweep(load_sweep_spec(spec), out, jobs=int(jobs))
    assert not out.exists()


def test_sweep_unknown_key_rejected(tmp_path):
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text("base_config: base.yaml\nseedz: [1]\n", encoding="utf-8")
    proc = run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "sweep spec error: unknown sweep key(s): seedz" in proc.stderr


@pytest.mark.parametrize(
    "text, message",
    [("- seeds\n", "sweep spec: must be a mapping"), ("seeds: [1]\n", "sweep spec needs base_config")],
)
def test_a_sweep_spec_is_a_mapping_naming_its_base_config(tmp_path, text, message):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_sweep_spec(spec)


@pytest.mark.parametrize(
    "axes, message",
    [
        ("seeds: [1.7]", "seeds[0]: must be an integer, got 1.7"),
        ("vehicle_counts: 5", "vehicle_counts: must be a list"),
        ("connected_fractions: [1.0, .nan]", "connected_fractions[1]: must be finite"),
        ("connected_fractions: [1.0, '1e-9']", "connected_fractions[1]: must be a number, got '1e-9'"),
        ("connected_fractions: [1.0, 0.0]", "connected_fractions[1]: must be within (0, 1]"),
        ("vehicle_counts: [0, 5]", "vehicle_counts[0]: must be >= 1"),
        ("seeds: [-1]", "seeds[0]: must fit an unsigned 64-bit integer"),
        ("strategies: [fastest]", "strategies[0]: must be one of"),
        # repeated cell ids would overwrite each other's detail file; both
        # fractions print as 0.5 in a cell id
        ("seeds: [1, 1]", "seeds[1]: gives the same cell ids as seeds[0]"),
        ("connected_fractions: [0.5, 0.5000001]\nseeds: [1, 1]", "seeds[1]: gives the same"),
        (
            "connected_fractions: [0.5, 0.5000001]",
            "connected_fractions[1]: gives the same cell ids as connected_fractions[0]",
        ),
    ],
)
def test_sweep_malformed_axis_exits_2_with_field_path(tmp_path, axes, message):
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(f"base_config: base.yaml\n{axes}\n", encoding="utf-8")
    out = tmp_path / "x"
    proc = run_cli("sweep", str(spec), "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


def test_sweep_axes_read_exponent_floats(tmp_path):
    # YAML 1.1 reads 1e-9 as a string; the loader reads YAML 1.2's forms
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "base_config: base.yaml\n"
        "vehicle_counts: [5]\n"
        "connected_fractions: [1.0, 1e-9, 5E-1]\n"
        "strategies: [realtime]\n"
        "seeds: [1]\n",
        encoding="utf-8",
    )
    loaded = load_sweep_spec(spec)
    assert loaded.connected_fractions == (1.0, 1e-9, 0.5)
    assert [c.cell_id for c in loaded.cells()] == [
        "realtime_n5_f1_s1", "realtime_n5_f1e-09_s1", "realtime_n5_f0.5_s1"
    ]


def test_sweep_failing_cell_aborts_and_preserves_finished_cells(tmp_path):
    # at connected_fraction 1e-9 no vehicle of seed 1 is connected, which
    # leaves reliability undefined, so its cell blows up at run time;
    # fraction-1.0 cells come first in product order and their detail
    # files must survive the abort
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "base_config: base.yaml\n"
        "vehicle_counts: [5]\n"
        "connected_fractions: [1.0, 1.0e-9]\n"
        "strategies: [realtime]\n"
        "seeds: [1]\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    proc = run_cli("sweep", str(spec), "--out-dir", str(out))
    assert proc.returncode == 3
    assert "realtime_n5_f1e-09_s1" in proc.stderr  # failing cell named
    kept = [p.name for p in (out / "detail").glob("*.csv")]
    assert kept == ["realtime_n5_f1_s1.csv"]
    assert not (out / "summary.csv").exists()  # sweep aborted before summary


def fail_in_seed(monkeypatch, target: str, seed: int) -> None:
    """Make ``engine.<target>`` raise "model crashed" in the traffic world
    of ``seed``; pool workers fork with the patches in place."""
    stream, real = engine.snapshot_stream, getattr(engine, target)
    world = {}

    def seeded_stream(config):
        world["seed"] = config.seed
        return stream(config)

    def failing(*args, **kwargs):
        if world["seed"] == seed:
            raise RuntimeError("model crashed")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "snapshot_stream", seeded_stream)
    monkeypatch.setattr(engine, target, failing)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_cell_error_names_the_cell_and_keeps_earlier_cells(tmp_path, monkeypatch, jobs):
    spec = load_sweep_spec(sweep_spec(tmp_path, counts="[4]", strategies="[realtime, predictive]"))
    fail_in_seed(monkeypatch, "route_predictive", 2)
    out = tmp_path / "out"
    with pytest.raises(SweepCellError, match="sweep cell predictive_n4_f1_s2 failed: model crashed") as err:
        run_sweep(spec, out, jobs=jobs)
    assert err.value.cell_id == "predictive_n4_f1_s2"
    # realtime_n4_f1_s2 shares the failing cell's traffic world, so it is not kept
    kept = sorted(p.name for p in (out / "detail").glob("*.csv"))
    assert kept == ["predictive_n4_f1_s1.csv", "realtime_n4_f1_s1.csv"]
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_shared_world_error_names_the_group_first_cell(tmp_path, monkeypatch, jobs):
    spec = load_sweep_spec(sweep_spec(tmp_path, counts="[4]", strategies="[conventional, predictive]"))
    fail_in_seed(monkeypatch, "build_topologies", 2)  # the ground truth of every strategy
    out = tmp_path / "out"
    with pytest.raises(SweepCellError, match="sweep cell conventional_n4_f1_s2 failed: model crashed") as err:
        run_sweep(spec, out, jobs=jobs)
    assert err.value.cell_id == "conventional_n4_f1_s2"
    kept = sorted(p.name for p in (out / "detail").glob("*.csv"))
    assert kept == ["conventional_n4_f1_s1.csv", "predictive_n4_f1_s1.csv"]
    assert not (out / "summary.csv").exists()


def test_sweep_generates_each_traffic_world_once(tmp_path, monkeypatch):
    spec = load_sweep_spec(
        sweep_spec(tmp_path, seeds="[1, 2, 3]", counts="[4, 6]", strategies="[realtime, predictive, conventional]")
    )
    spec = dataclasses.replace(
        spec, base=dataclasses.replace(spec.base, duration=5.0), connected_fractions=(1.0, 0.5)
    )
    assert len(spec.cells()) == 36
    worlds = []
    init_traffic = mobility.init_traffic

    def spy(config):
        worlds.append((config.vehicle_count, config.connected_fraction, config.seed))
        return init_traffic(config)

    monkeypatch.setattr(mobility, "init_traffic", spy)
    run_sweep(spec, tmp_path / "out", jobs=1)
    assert sorted(worlds) == sorted(itertools.product((4, 6), (1.0, 0.5), (1, 2, 3)))


@pytest.mark.parametrize(
    "jobs, counts, workers",
    [(8, "[4]", None), (8, "[4, 6]", 2), (2, "[4, 6, 8]", 2), (1, "[4, 6]", None)],
)
def test_sweep_starts_no_more_workers_than_groups(tmp_path, monkeypatch, jobs, counts, workers):
    sizes = []

    class RecordingPool:  # records its size and runs the groups in-process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(experiment.multiprocessing, "Pool", RecordingPool)
    spec = load_sweep_spec(sweep_spec(tmp_path, seeds="[1]", counts=counts, strategies="[realtime]"))
    spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, duration=5.0))
    rows = run_sweep(spec, tmp_path / "out", jobs=jobs)
    assert len(rows) == counts.count(",") + 1
    assert sizes == ([] if workers is None else [workers])


def test_replay_roundtrip(tmp_path):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    cfg = default_config(duration=10.0, vehicle_count=6, connected_fraction=0.5, seed=3)
    trace = tmp_path / "trace.csv"
    with open(trace, "w") as f:
        list(tee_trace(snapshot_stream(cfg), f, cfg.dt))
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert 0.0 <= float(row.split(",")[4]) <= 1.0


def test_replay_streams_the_trace(tmp_path, monkeypatch):
    # replay pulls the trace as run pulls its traffic: the truth graph of
    # step k is built before any row of step k + 2 is read
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--dump-trace"]) == 0
    trace = (out / "trace.csv").read_text().splitlines(keepends=True)
    first_line = {}  # timestep -> 0-based index of its first row
    for n, row in enumerate(trace[1:], start=1):
        first_line.setdefault(int(row.split(",")[0]), n)

    read = []
    builds = []  # (timestep, lines read so far) of each graph build
    build_topologies, read_trace = engine.build_topologies, cli.read_trace

    def counting_build(snapshot, timesteps, *args):
        builds.extend((ts, len(read)) for ts in timesteps)
        return build_topologies(snapshot, timesteps, *args)

    def counting_read(lines, config):
        def counted():
            for line in lines:
                read.append(line)
                yield line

        return read_trace(counted(), config)

    monkeypatch.setattr(engine, "build_topologies", counting_build)
    monkeypatch.setattr(cli, "read_trace", counting_read)
    replayed = tmp_path / "replayed"
    assert main(["replay", str(out / "trace.csv"), str(cfg), "--out-dir", str(replayed)]) == 0
    assert len(read) == len(trace)
    steps = sorted(first_line)
    assert [ts for ts, _ in builds] == steps[1:]  # every scored step, once
    for ts, lines_read in builds:
        assert lines_read <= first_line.get(ts + 2, len(trace)), ts
    assert (replayed / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


@pytest.mark.parametrize(
    "x, message",
    [(b"nan", "x must be finite, got nan"), (b"1.0\xff", "the line holds a byte that is not UTF-8")],
    ids=["nan", "not-utf8"],
)
def test_replay_error_found_mid_run_exits_2_naming_the_line(tmp_path, x, message):
    cfg = default_config(duration=30.0, vehicle_count=30, connected_fraction=0.5, seed=1)
    cfg_path = tmp_path / "s.yaml"
    save_config(cfg, cfg_path)
    buf = io.StringIO()
    list(tee_trace(snapshot_stream(cfg), buf, cfg.dt))
    rows = buf.getvalue().encode().splitlines(keepends=True)
    # a vehicle row of the last step: it is read once every other step is scored
    index = len(rows) - 5
    assert rows[index].startswith(b"300,")
    fields = rows[index].split(b",")
    rows[index] = b",".join([*fields[:4], x, *fields[5:]])
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"".join(rows))
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"{trace}: trace line {index + 1}: {message}" in proc.stderr
    assert "runtime error" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0.1,4,1,nan,2.0,0.0,5.0", "trace line 3: x must be finite, got nan"),
        ("1,0.1,4,1,1.0,2.0,inf,5.0", "trace line 3: heading must be finite, got inf"),
        ("5,0.5,4,1,1.0,2.0,0.0,5.0", "trace line 3: timestep 5 does not follow 0"),
        ("1,0.1,4,1,1.0,2.0", "trace line 3: expected 8 columns, got 6"),
        ("1,0.1,four,1,1.0,2.0,0.0,5.0", "trace line 3: invalid literal"),
        ("0,0.0,5,1,0.0,2.0,1.0,3.0", "trace line 3: vehicles 4 and 5 share position"),
        (
            "1,0.1,4,0,1.0,2.0,0.0,5.0",
            "trace line 3: vehicle 4 has a body or connected flag other than on line 2",
        ),
        (
            "1,0.1,4,1,1.0,2.0,0.0,5.0\n1,99.5,5,1,3.0,2.0,0.0,5.0",
            "trace line 4: timestep 1 has sim_time 99.5, not timestep * dt = 0.1 (dt 0.1)",
        ),
        # a header only as the first line: this one would switch to body columns
        (
            "timestep,sim_time,id,connected,x,y,heading,speed,length,width,height,antenna_height\n"
            "1,0.1,5,1,0.0,0.0,0.0,5.0,4.5,1.8,4.2,5.0",
            "trace line 3: a header must be the first line and name the columns in order",
        ),
    ],
)
def test_replay_bad_trace_exits_2_naming_the_line(tmp_path, row, message):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "timestep,sim_time,id,connected,x,y,heading,speed\n"
        f"0,0.0,4,1,0.0,2.0,0.0,5.0\n{row}\n",
        encoding="utf-8",
    )
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,0.0,4,1,0.0,2.0,0.0,5.0"], "nothing to score: 1 snapshot(s)"),
        (
            ["0,0.0,4,1,0.0,2.0,0.0,5.0", "1,0.1,5,0,8.0,2.0,0.0,5.0", "2,0.2,5,0,8.5,2.0,0.0,5.0"],
            "nothing to score: 3 snapshot(s)",
        ),
    ],
    ids=["one-snapshot", "none-connected-later"],
)
def test_replay_with_nothing_to_score_exits_2_naming_the_trace(tmp_path, rows, message):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "timestep,sim_time,id,connected,x,y,heading,speed\n" + "\n".join(rows) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"{trace}: {message}" in proc.stderr
    assert "runtime error" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, code, message",
    [
        # 1e-200 squared underflows, so the graph builder would see a
        # zero-length link to the RSU: the reader rejects the line
        (
            ["0,0.0,4,1,0.0,2.0,0.0,5.0,4.5,1.8,4.2,5.0", "1,0.1,4,1,1e-200,0.0,0.0,5.0,4.5,1.8,4.2,5.0"],
            2,
            "trace line 3: the antenna of vehicle 4 is at the RSU's point (0.0, 0.0, 5.0)",
        ),
        # two connected antennas 1e-200 m apart: the reader rejects the
        # second one's line, as the graph builder would reject the pair
        (
            [
                "0,0.0,4,1,0.0,2.0,0.0,5.0,4.5,1.8,4.2,3.0",
                "1,0.1,4,1,1e-200,0.0,0.0,5.0,4.5,1.8,4.2,3.0",
                "1,0.1,5,1,2e-200,0.0,0.0,5.0,4.5,1.8,4.2,3.0",
            ],
            2,
            "trace line 4: the antennas of vehicles 4 and 5 coincide in timestep 1",
        ),
    ],
    ids=["antenna-at-rsu", "antennas-coincide"],
)
def test_replay_of_antennas_that_underflow_to_one_point_leaves_no_directory(tmp_path, rows, code, message):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "timestep,sim_time,id,connected,x,y,heading,speed,length,width,height,antenna_height\n"
        + "\n".join(rows)
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


def test_replay_of_a_trace_recorded_at_another_dt_exits_2(tmp_path):
    cfg_path = write_small_config(tmp_path / "s.yaml")  # dt 0.1
    recorded = default_config(
        duration=2.0, dt=0.05, vehicle_count=6, connected_fraction=0.5, seed=3
    )
    trace = tmp_path / "trace.csv"
    with open(trace, "w") as f:
        list(tee_trace(snapshot_stream(recorded), f, recorded.dt))
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert (
        f"{trace}: trace line 3: timestep 1 has sim_time 0.05, not timestep * dt = 0.1 (dt 0.1)"
        in proc.stderr
    )
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_replay_of_an_unreadable_trace_exits_2_naming_it(tmp_path, capsys, kind):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    trace = tmp_path / "trace.csv"
    if kind == "directory":
        trace.mkdir()
    out = tmp_path / "replay-out"
    assert main(["replay", str(trace), str(cfg_path), "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{trace}: [Errno ")
    assert not out.exists()


def test_shipped_configs_validate():
    proc = run_cli("validate", "configs/intersection.yaml")
    assert proc.returncode == 0, proc.stderr
    spec = load_sweep_spec(REPO / "configs" / "sweep.yaml")
    assert spec.validate().ok
    assert len(list(spec.cells())) == 180


def test_main_callable_directly(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    assert main(["validate", str(cfg)]) == 0
