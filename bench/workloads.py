"""The four benchmark workloads and how one measured pass of each runs.

A pass is a fixed amount of work, a pure function of (workload, seed,
seconds). Each run repeats it ``passes`` times, so that every timestep is
timed more than once and the passes can be checked against each other.
Every step time is paired with the host factor measured around it (see
README.md, "Host noise").

- ``paper_mixed30``, ``dense_connected60`` and ``learned_predictive``
  score short windows cut from a few long traffic streams, each stream
  seeded from the workload seed. Windows start after the traffic ramp-up
  and are spaced apart so that each sees a different traffic layout;
  every pass scores the same windows through ``run_variants(snapshots=...)``.
- ``sweep_small`` runs one ``run_sweep`` per pass at ``--jobs 2``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import heapq
import io
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import twinroute as tr
from twinroute import engine, metrics, mobility
from twinroute.experiment import SweepSpec

WARM_STEPS = 150  # traffic ramps up for 12-15 simulated seconds at dt = 0.1
NOMINAL_SECONDS = 20  # the work below takes about this long on the reference host
SWEEP_JOBS = 2
MODEL = Path(__file__).resolve().parent / "learned_model.py"


@dataclass(frozen=True)
class Scenario:
    name: str
    vehicle_count: int
    connected_fraction: float
    lane_count: int
    strategies: tuple[str, ...]
    predictor: str
    streams: int  # traffic streams per run at NOMINAL_SECONDS, one seed each
    windows: int  # scored windows cut from each stream
    scored_steps: int  # timed steps per window
    gap_steps: int  # stream steps from one window's start to the next
    passes: int = 2


@dataclass(frozen=True)
class Sweep:
    name: str
    duration: float
    passes: int  # at NOMINAL_SECONDS


WORKLOADS = {
    w.name: w
    for w in (
        Scenario("paper_mixed30", 30, 0.5, 1, ("realtime", "predictive", "conventional"),
                 "constant_velocity", streams=8, windows=8, scored_steps=21, gap_steps=30),
        Scenario("dense_connected60", 60, 1.0, 2, ("realtime",), "constant_velocity",
                 streams=4, windows=20, scored_steps=2, gap_steps=20),
        Scenario("learned_predictive", 30, 0.5, 1, ("predictive",), "learned",
                 streams=2, windows=6, scored_steps=11, gap_steps=40),
        Sweep("sweep_small", duration=25.0, passes=3),
    )
}


# calibrate() on the reference host (2 vCPUs, see README.md) when it runs
# at full speed; time metrics are scaled to it
CALIBRATION_REF_NS = 1_300_000


def host_factor(*samples: int) -> float:
    """How much slower than the reference the host ran: mean sample / ref."""
    return sum(samples) / len(samples) / CALIBRATION_REF_NS


def calibrate() -> int:
    """Host time of a fixed Python and numpy kernel, best of 3, in ns.

    It mixes the operations the simulator spends its time on (tuple heaps,
    dict updates, small numpy expressions) and never calls twinroute, so
    it measures how fast the host runs at the moment, not the program.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        heap: list[tuple[int, int]] = []
        acc: dict[int, float] = {}
        for i in range(1500):
            key = (i * 7919) % 1009
            acc[key] = acc.get(key, 0.0) + i * 0.5
            heapq.heappush(heap, (key, i))
        while heap:
            heapq.heappop(heap)
        a = np.arange(3000.0)
        float(np.sqrt(a * a + 1.0).sum())
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


def scale(nominal: int, seconds: float) -> int:
    """Work size for a ``seconds``-long run; at least 2 so passes compare."""
    return max(2, round(nominal * seconds / NOMINAL_SECONDS))


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_output(result) -> dict:
    """What the output gate compares for one strategy variant's run."""
    detail = io.StringIO()
    metrics.write_detail(result, detail)
    return {
        "reliability": result.reliability,
        "satisfied": sum(o.connected_satisfied for o in result.outcomes),
        "total": sum(o.connected_total for o in result.outcomes),
        "sha256": sha256(detail.getvalue()),
    }


def timed_steps(
    snapshots: Iterable, sink: list[int], on_first: Callable[[], None] | None = None,
    clock: Callable[[], int] = time.perf_counter_ns,
) -> Iterator:
    """Yield ``snapshots`` unchanged, appending one host time per scored step.

    ``run_variants`` uses the first snapshot as history and scores every
    later one. Step k runs from the moment snapshot k is handed over to the
    moment snapshot k+1 is: scoring every variant at k plus generating k+1.
    The last step ends when the stream is asked for more.
    """
    it = iter(snapshots)
    first = next(it, None)
    if first is None:
        return
    yield first
    prev = None
    for snap in it:
        now = clock()
        if prev is not None:
            sink.append(now - prev)
        elif on_first is not None:
            on_first()
        prev = now
        yield snap
    if prev is not None:
        sink.append(clock() - prev)


@dataclass
class PassResult:
    step_ns: list[int]  # one per scored timestep, in a fixed order
    factors: list[float]  # host factor measured around each step
    outputs: dict[str, dict]  # operation id -> gate values
    failed: set[str]  # operations that raised or reported degraded tracks
    wall_ns: int
    pairs: int  # (variant, timestep) pairs scored

    @property
    def scaled_ns(self) -> list[float]:
        return [ns / f for ns, f in zip(self.step_ns, self.factors)]

    @property
    def scaled_wall_ns(self) -> float:
        return self.wall_ns / statistics.median(self.factors)


class ScenarioRunner:
    """Scores windows of a few long traffic streams, the same ones every pass.

    Window j of a stream is its snapshots WARM_STEPS + j * gap_steps
    onwards, ``scored_steps + 1`` of them, handed to ``run_variants``;
    each window is one run per strategy variant. Traffic is stepped to
    each window's start once, untimed, and the state copied for every pass.
    """

    def __init__(self, wl: Scenario, seed: int, seconds: float):
        self.wl = wl
        self.passes = wl.passes
        self.windows = [
            (seed * 100 + i, j)
            for i in range(scale(wl.streams, seconds))
            for j in range(wl.windows)
        ]
        self._cursor: dict[int, tuple[mobility.TrafficState, int]] = {}
        self._starts: dict[tuple[int, int], mobility.TrafficState] = {}

    def variants(self, stream_seed: int) -> dict[str, tr.ScenarioConfig]:
        wl = self.wl
        base = tr.default_config(
            seed=stream_seed,
            duration=(WARM_STEPS + wl.windows * wl.gap_steps) * 0.1,
            vehicle_count=wl.vehicle_count,
            connected_fraction=wl.connected_fraction,
        )
        base = dataclasses.replace(
            base,
            intersection=dataclasses.replace(base.intersection, lane_count=wl.lane_count),
            prediction=dataclasses.replace(
                base.prediction,
                predictor=wl.predictor,
                learned_command=(sys.executable, "-S", str(MODEL)) if wl.predictor == "learned" else None,
            ),
        )
        return {s: dataclasses.replace(base, strategy=tr.Strategy(s)) for s in wl.strategies}

    def window(self, base: tr.ScenarioConfig, j: int) -> Iterator:
        """Snapshots ``start .. start + scored_steps`` of ``snapshot_stream(base)``."""
        key = (base.seed, j)
        if key not in self._starts:
            state, step = self._cursor.get(base.seed) or (mobility.init_traffic(base), 0)
            for _ in range(WARM_STEPS + j * self.wl.gap_steps - step):
                mobility.advance_traffic(state, base.dt)
            self._cursor[base.seed] = (state, WARM_STEPS + j * self.wl.gap_steps)
            self._starts[key] = copy.deepcopy(state)
        state = copy.deepcopy(self._starts[key])
        yield state.snapshot()
        for _ in range(self.wl.scored_steps):
            _, snap = mobility.advance_traffic(state, base.dt)
            yield snap

    def run_pass(self, on_first: Callable[[], None] | None = None) -> PassResult:
        steps: list[int] = []
        factors: list[float] = []
        outputs: dict[str, dict] = {}
        failed: set[str] = set()
        pairs = 0
        wall = 0
        for stream_seed, j in self.windows:
            variants = self.variants(stream_seed)
            window = self.window(next(iter(variants.values())), j)
            first = next(window)  # untimed: on the first pass this steps traffic to the window
            snapshots = timed_steps(_chain(first, window), steps, on_first)
            on_first = None
            before = calibrate()
            start = time.perf_counter_ns()
            try:
                results = tr.run_variants(variants, snapshots=snapshots)
            except Exception as exc:
                print(f"error: window {stream_seed}/{j} raised {exc!r}", file=sys.stderr)
                failed.update(f"s{stream_seed}w{j}/{name}" for name in variants)
                continue
            finally:
                wall += time.perf_counter_ns() - start
                factors.extend([host_factor(before, calibrate())] * (len(steps) - len(factors)))
            for name, result in results.items():
                op = f"s{stream_seed}w{j}/{name}"
                outputs[op] = run_output(result)
                pairs += len(result.outcomes)
                if self.wl.predictor == "learned" and result.prediction_fallbacks:
                    print(f"error: {op} reported {result.prediction_fallbacks} degraded tracks",
                          file=sys.stderr)
                    failed.add(op)
        return PassResult(steps, factors, outputs, failed, wall, pairs)

    def operations(self) -> list[str]:
        return [f"s{s}w{j}/{name}" for s, j in self.windows for name in self.wl.strategies]


def _chain(first, rest: Iterator) -> Iterator:
    yield first
    yield from rest


class SweepRunner:
    def __init__(self, wl: Sweep, seed: int, seconds: float, workdir: Path):
        self.wl = wl
        self.passes = scale(wl.passes, seconds)
        self.workdir = workdir
        self.spec = SweepSpec(
            tr.default_config(duration=wl.duration),
            vehicle_counts=(10, 20),
            connected_fractions=(1.0, 0.5),
            strategies=tuple(tr.Strategy),
            seeds=(3 * seed - 2, 3 * seed - 1, 3 * seed),
        )
        self._count = 0

    def operations(self) -> list[str]:
        return [cell.cell_id for cell in self.spec.cells()]

    def run_pass(self, on_enter: Callable[[], None] | None = None,
                 step_sink: Path | None = None) -> PassResult:
        """One ``run_sweep``; with ``step_sink``, pool workers record step times."""
        self._count += 1
        out = self.workdir / f"sweep-{self._count}"
        if on_enter is not None:
            on_enter()
        saved = engine.snapshot_stream
        if step_sink is not None:
            engine.snapshot_stream = _cell_step_timer(saved, step_sink)
        start = time.perf_counter_ns()
        try:
            tr.run_sweep(self.spec, out, jobs=SWEEP_JOBS)
        except Exception as exc:
            print(f"error: sweep raised {exc!r}", file=sys.stderr)
            return PassResult([], [1.0], {}, set(self.operations()), 0, 0)
        finally:
            engine.snapshot_stream = saved
        wall = time.perf_counter_ns() - start
        outputs = {}
        pairs = 0
        for cell in self.operations():
            text = (out / "detail" / f"{cell}.csv").read_text(encoding="utf-8")
            outputs[cell] = sha256(text)
            pairs += text.count("\n") - 1
        for name in ("summary.csv", "plot_means.csv"):
            outputs[name] = sha256((out / name).read_text(encoding="utf-8"))
        steps, factors = self.read_steps(step_sink) if step_sink else ([], [1.0])
        return PassResult(steps, factors, outputs, set(), wall, pairs)

    @staticmethod
    def read_steps(sink: Path) -> tuple[list[int], list[float]]:
        """Post-warm-up step times and their cells' host factors, ordered
        by (cell, timestep)."""
        keyed = {}
        for path in sink.glob("steps-*.txt"):
            for line in path.read_text(encoding="utf-8").splitlines():
                cell, factor, ts, ns = line.split()
                if int(ts) > WARM_STEPS:
                    keyed[(cell, int(ts))] = (int(ns), float(factor))
            path.unlink()
        ordered = [keyed[k] for k in sorted(keyed)]
        return [ns for ns, _ in ordered], [f for _, f in ordered]


def _cell_step_timer(snapshot_stream: Callable, sink: Path) -> Callable:
    """Wrap ``engine.snapshot_stream`` so forked pool workers log step times.

    Each cell is bracketed by calibrate() in the worker itself, so its host
    factor includes the load of the other worker, as its steps do.
    """

    def timed_stream(config):
        cell = (f"{config.strategy.value}_n{config.vehicle_count}"
                f"_f{config.connected_fraction:g}_s{config.seed}")
        steps: list[int] = []
        stamps: list[int] = []
        before = calibrate()
        for snap in timed_steps(snapshot_stream(config), steps):
            stamps.append(snap.timestep)
            yield snap
        factor = host_factor(before, calibrate())
        lines = "".join(f"{cell} {factor!r} {ts} {ns}\n" for ts, ns in zip(stamps[1:], steps))
        with open(sink / f"steps-{os.getpid()}.txt", "a", encoding="utf-8") as f:
            f.write(lines)

    return timed_stream
