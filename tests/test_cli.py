from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from twinroute.cli import main
from twinroute.config import default_config, save_config
from twinroute.metrics import reliability_from_detail
from twinroute.mobility import snapshot_stream, write_trace

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
        pytest.param(
            f"vehicle_mix:\n  - {VEHICLE}\n", "vehicle_mix[0].name: required", id="mix-without-name"
        ),
        pytest.param("duration: .inf\n", "duration: must be finite", id="inf"),
        pytest.param("duration: .nan\n", "duration: must be finite", id="nan"),
        pytest.param("seed: 1.7\n", "seed: must be an integer", id="fractional-int"),
        pytest.param("vehicle_count: true\n", "vehicle_count: must be an integer", id="bool-int"),
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
        assert reliability_from_detail(f) == reported
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


def test_run_dump_trace_feeds_replay(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    out = tmp_path / "out"
    proc = run_cli("run", str(cfg), "--out-dir", str(out), "--dump-trace")
    assert proc.returncode == 0, proc.stderr
    trace = out / "trace.csv"
    assert trace.read_text().startswith("timestep,sim_time,id,connected,x,y,heading,speed")
    replay = run_cli("replay", str(trace), str(cfg), "--out-dir", str(tmp_path / "r"))
    assert replay.returncode == 0, replay.stderr


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


def test_sweep_unknown_key_rejected(tmp_path):
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text("base_config: base.yaml\nseedz: [1]\n", encoding="utf-8")
    proc = run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 2


def test_sweep_failing_cell_aborts_and_preserves_finished_cells(tmp_path):
    # connected_fraction 0 validates but leaves reliability undefined, so
    # its cells blow up at run time; fraction-1.0 cells come first in
    # product order and their detail files must survive the abort
    write_small_config(tmp_path / "base.yaml")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "base_config: base.yaml\n"
        "vehicle_counts: [5]\n"
        "connected_fractions: [1.0, 0.0]\n"
        "strategies: [realtime]\n"
        "seeds: [1]\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    proc = run_cli("sweep", str(spec), "--out-dir", str(out))
    assert proc.returncode == 3
    assert "realtime_n5_f0_s1" in proc.stderr  # failing cell named
    kept = [p.name for p in (out / "detail").glob("*.csv")]
    assert kept == ["realtime_n5_f1_s1.csv"]
    assert not (out / "summary.csv").exists()  # sweep aborted before summary


def test_replay_roundtrip(tmp_path):
    cfg_path = write_small_config(tmp_path / "s.yaml")
    cfg = default_config(duration=10.0, vehicle_count=6, connected_fraction=0.5, seed=3)
    trace = tmp_path / "trace.csv"
    with open(trace, "w") as f:
        write_trace(snapshot_stream(cfg), f)
    out = tmp_path / "replay-out"
    proc = run_cli("replay", str(trace), str(cfg_path), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert 0.0 <= float(row.split(",")[4]) <= 1.0


def test_main_callable_directly(tmp_path):
    cfg = write_small_config(tmp_path / "s.yaml")
    assert main(["validate", str(cfg)]) == 0
