"""The files the CLI and ``run_sweep`` write, pinned byte for byte.

``test_golden.py`` pins what the engine computes; these digests pin how
it lands on disk: the run's ``summary.csv``, detail file and trace, the
replay of that trace, and a sweep's ``summary.csv``, ``plot_means.csv``
and ``plots.gp`` at one and two jobs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from twinroute.cli import main
from twinroute.config import default_config, save_config
from twinroute.experiment import SweepSpec, run_sweep
from twinroute.model import Strategy


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL = dict(duration=10.0, vehicle_count=6, connected_fraction=0.5, seed=3)

RUN_FILES = {
    "summary.csv": "96beb434ce5d691427e0309e0470b4fa0a69eec74597157674ac88afe4bcaa35",
    "detail/predictive_n6_f0.5_s3.csv": "826a43d64f3fa776774a4d5147d872f78f76dffaf71558067fb9e61a3afbe036",
    "trace.csv": "94f9f6ca680f7815a3339e34c91d91ea9034ec74ad176a48d08d7429b302471f",
}


def test_run_and_replay_files_pinned(tmp_path):
    cfg = tmp_path / "s.yaml"
    save_config(default_config(strategy=Strategy.PREDICTIVE, **SMALL), cfg)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out-dir", str(out), "--dump-trace"]) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")) == sorted(RUN_FILES)
    assert {name: sha256(out / name) for name in RUN_FILES} == RUN_FILES

    replayed = tmp_path / "replay"
    assert main(["replay", str(out / "trace.csv"), str(cfg), "--out-dir", str(replayed)]) == 0
    for name in ("summary.csv", "detail/predictive_n6_f0.5_s3.csv"):
        assert (replayed / name).read_bytes() == (out / name).read_bytes()


SWEEP_FILES = {
    "summary.csv": "358133211fd222d220690e35bb760479603b74e64343d4e648c00ff3416546fc",
    "plot_means.csv": "0a87904e81a8435852acba5ccc81e29483cf508e31d371299bd848547f8c5cab",
    "plots.gp": "8ba0d51b181045bf57489d67893f8e52fb111bfad8cf8768df4c34dfad0a911a",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_files_pinned(tmp_path, jobs):
    spec = SweepSpec(
        default_config(**SMALL),
        vehicle_counts=(6,),
        connected_fractions=(1.0, 0.5),
        strategies=tuple(Strategy),
        seeds=(1, 2),
    )
    assert len(spec.cells()) == 12
    run_sweep(spec, tmp_path, jobs=jobs)
    assert len(list((tmp_path / "detail").glob("*.csv"))) == 12
    assert {name: sha256(tmp_path / name) for name in SWEEP_FILES} == SWEEP_FILES


def test_plot_means_write_a_fraction_given_as_int_as_a_float(tmp_path):
    spec = SweepSpec(
        default_config(**SMALL),
        vehicle_counts=(6,),
        connected_fractions=(1,),
        strategies=(Strategy.REALTIME,),
        seeds=(1,),
    )
    run_sweep(spec, tmp_path)
    means = (tmp_path / "plot_means.csv").read_text(encoding="utf-8").splitlines()
    assert means[1].startswith("1.0,realtime,6,")
