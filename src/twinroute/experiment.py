"""Experiment sweeps: the Cartesian product of counts, fractions,
strategies and seeds, CSV outputs and an emitted gnuplot script for
reliability-vs-vehicle-count figures. The cells of one (count, fraction,
seed) differ only in strategy, so they share one traffic world: one
``run_variants`` call generates the traffic and ground truth once and
scores every strategy on it.

A cell is its config. ``write_cell`` and ``write_summary`` write the files
of every run, a sweep's cells and a lone ``run`` or ``replay`` alike."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, get_type_hints

from .config import ScenarioConfig, _decode, load_config, read_yaml, validate_config
from .engine import ConfigError, log, run_variants
from .metrics import SUMMARY_HEADER, RunResult, summary_row, write_detail
from .model import Strategy, ValidationReport


# sweep axis -> the ScenarioConfig field each of its values sets
_AXES = (
    ("vehicle_counts", "vehicle_count"),
    ("connected_fractions", "connected_fraction"),
    ("strategies", "strategy"),
    ("seeds", "seed"),
)


@dataclass(frozen=True)
class SweepSpec:
    base: ScenarioConfig
    vehicle_counts: tuple[int, ...] = (10, 20, 30)
    connected_fractions: tuple[float, ...] = (1.0, 0.5)
    strategies: tuple[Strategy, ...] = tuple(Strategy)
    seeds: tuple[int, ...] = tuple(range(1, 11))

    def validate(self) -> ValidationReport:
        """Empty axes, then every cell's repeated id or ``validate_config``
        violations.

        A violation of a field an axis sets is reported at that axis
        value (``seeds[2]``), any other at ``base_config.<path>``; each
        distinct one is reported once. A cell would overwrite the detail
        file of an earlier cell with its id (``seeds: [1, 1]``, or
        fractions equal under ``:g``): the later value of the first axis
        in which the two differ is reported.
        """
        bad = [(axis, "must not be empty") for axis, _ in _AXES if not getattr(self, axis)]
        axes = [list(enumerate(getattr(self, axis))) for axis, _ in _AXES]
        first: dict[str, tuple] = {}  # cell id -> the picks that first gave it
        for picks, cell in zip(itertools.product(*axes), self.cells()):
            earlier = first.setdefault(cell.cell_id, picks)
            entries = [
                (f"{axis}[{k}]", f"gives the same cell ids as {axis}[{k0}]")
                for (axis, _), (k, _), (k0, _) in zip(_AXES, picks, earlier)
                if k != k0
            ][:1]
            where = {fld: f"{axis}[{k}]" for (axis, fld), (k, _) in zip(_AXES, picks)}
            for path, msg in validate_config(cell.config).violations:
                entries.append((where.get(path, f"base_config.{path}"), msg))
            for entry in entries:
                if entry not in bad:
                    bad.append(entry)
        return ValidationReport(tuple(bad))

    def cells(self) -> list["SweepCell"]:
        """The base config with one value per axis, in product order."""
        return [
            SweepCell(dataclasses.replace(self.base, **{f: v for (_, f), v in zip(_AXES, values)}))
            for values in itertools.product(*(getattr(self, axis) for axis, _ in _AXES))
        ]


@dataclass(frozen=True)
class SweepCell:
    """One run of a sweep, or a lone run: its config names its files."""

    config: ScenarioConfig

    @property
    def cell_id(self) -> str:
        c = self.config
        return f"{c.strategy.value}_n{c.vehicle_count}_f{c.connected_fraction:g}_s{c.seed}"


class SweepCellError(RuntimeError):
    def __init__(self, cell_id: str, cause: Exception):
        super().__init__(f"sweep cell {cell_id} failed: {cause}")
        self.cell_id = cell_id


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Read a sweep spec; axes decode like config fields, errors name their path."""
    data = read_yaml(path) or {}
    if not isinstance(data, dict):
        raise ValueError("sweep spec: must be a mapping")
    axes = {axis for axis, _ in _AXES}
    unknown = sorted(set(data) - axes - {"base_config"})
    if unknown:
        raise ValueError(f"unknown sweep key(s): {', '.join(map(str, unknown))}")
    if "base_config" not in data:
        raise ValueError("sweep spec needs base_config: <path to scenario file>")
    base = load_config(Path(path).parent / str(data["base_config"]))
    hints = get_type_hints(SweepSpec)
    return SweepSpec(base, **{k: _decode(hints[k], v, k) for k, v in data.items() if k in axes})


def write_cell(result: RunResult, cell: SweepCell, out: str | Path) -> str:
    """Write ``detail/<cell id>.csv`` under ``out``; return the cell's summary row."""
    detail = Path(out) / "detail"
    detail.mkdir(parents=True, exist_ok=True)
    with open(detail / f"{cell.cell_id}.csv", "w", encoding="utf-8", newline="") as f:
        write_detail(result, f)
    cfg = cell.config
    return summary_row(result, cfg.vehicle_count, cfg.connected_fraction, cfg.seed)


def write_summary(rows: Iterable[str], out: str | Path) -> None:
    """Write ``summary.csv`` under ``out``: the header, then ``rows`` in order."""
    with open(Path(out) / "summary.csv", "w", encoding="utf-8", newline="") as f:
        f.write(SUMMARY_HEADER)
        f.writelines(rows)


def _run_group(args: tuple[list[SweepCell], str]) -> list[tuple[str, float]]:
    """Worker: run the cells of one traffic world, write their detail files,
    return each cell's (summary row, reliability)."""
    cells, out_dir = args
    results = run_variants({cell.cell_id: cell.config for cell in cells}).values()
    return [(write_cell(r, cell, out_dir), r.reliability) for cell, r in zip(cells, results)]


def run_sweep(spec: SweepSpec, out_dir: str | Path, jobs: int = 1) -> list[str]:
    """Run every cell, write summary.csv, detail files and plots.gp.

    The cells of one (count, fraction, seed) form a group that shares one
    traffic world; groups are independent and run in the order of their
    first cell, in parallel on ``min(jobs, groups)`` pool workers when
    that is more than one, one group per pool task. The summary keeps
    product order, so output bytes do not depend on jobs. An invalid spec
    raises ConfigError before anything is written. A failing group aborts
    the sweep and raises SweepCellError naming the cell whose strategy
    failed, or the group's first cell when its shared traffic or ground
    truth did; the detail files of every group that completed are kept,
    the failing group's are not written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    report = spec.validate()
    if not report.ok:
        raise ConfigError(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = spec.cells()
    groups: dict[tuple, list[SweepCell]] = {}
    for cell in cells:
        cfg = cell.config
        groups.setdefault((cfg.vehicle_count, cfg.connected_fraction, cfg.seed), []).append(cell)
    work = [(group, str(out)) for group in groups.values()]

    done: dict[str, tuple[str, float]] = {}  # cell id -> (summary row, reliability)
    workers = min(jobs, len(work))
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = map(_run_group, work) if pool is None else pool.imap(_run_group, work)
        for group, _ in work:  # results arrive in group order
            try:
                outputs = next(results)
            except Exception as exc:  # preserve completed outputs, name the cell
                failed = getattr(exc, "variant", None) or group[0].cell_id
                raise SweepCellError(failed, exc) from exc
            for cell, output in zip(group, outputs):
                log(f"finished {cell.cell_id}")
                done[cell.cell_id] = output

    rows = [done[cell.cell_id][0] for cell in cells]
    write_summary(rows, out)
    _write_plot_assets(cells, [done[cell.cell_id][1] for cell in cells], out)
    return rows


def _write_plot_assets(cells: list[SweepCell], reliabilities: list[float], out: Path) -> None:
    """Aggregate seed means and emit a gnuplot script next to them."""
    sums: dict[tuple[float, str, int], list[float]] = {}
    for cell, reliability in zip(cells, reliabilities):
        cfg = cell.config
        # float: a fraction given as int 1 still plots as 1.0
        key = (float(cfg.connected_fraction), cfg.strategy.value, cfg.vehicle_count)
        sums.setdefault(key, []).append(reliability)

    fractions = sorted({k[0] for k in sums})
    strategies = sorted({k[1] for k in sums})
    with open(out / "plot_means.csv", "w", encoding="utf-8", newline="") as f:
        f.write("connected_fraction,strategy,vehicle_count,mean_reliability\n")
        for (fraction, strategy, count) in sorted(sums):
            vals = sums[(fraction, strategy, count)]
            f.write(f"{fraction!r},{strategy},{count},{sum(vals) / len(vals)!r}\n")

    lines = [
        "# reliability vs vehicle count, one panel per connected fraction",
        "# usage: gnuplot plots.gp  (writes plots.png)",
        "set datafile separator ','",
        "set terminal pngcairo size 1200,500",
        "set output 'plots.png'",
        "set key bottom left",
        "set yrange [0:1.05]",
        "set xlabel 'number of vehicles'",
        "set ylabel 'reliability'",
        f"set multiplot layout 1,{len(fractions)}",
    ]
    for fraction in fractions:
        lines.append(f"set title 'connected fraction {fraction:g}'")
        plots = []
        for strategy in strategies:
            cond = f"(strcol(2) eq '{strategy}' && column(1) == {fraction!r})"
            plots.append(
                f"'plot_means.csv' using ($3):({cond} ? $4 : 1/0) "
                f"with linespoints title '{strategy}'"
            )
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    lines.append("unset multiplot")
    with open(out / "plots.gp", "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")
