"""Outside-in tracing: wrap public functions at twinroute's layer boundaries.

Nothing in ``src/`` is changed. :class:`Patcher` replaces each target name
where callers look it up (for example ``twinroute.engine.build_topology``,
the name the engine resolves at call time) with a wrapper that records a
span in a :class:`Tracer`, and puts every original back on exit. A target
that no longer exists is reported as absent with a warning; the run goes on.

Spans nest on a stack, so a span's self time is its duration minus the
time its direct child spans cover. A layer's self time is the sum of the
self times of its spans. Counters are updated from each call's arguments
and result, after the span has closed.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# (args, kwargs, result, counts) -> None
CountFn = Callable[[tuple, dict, Any, Counter], None]


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "name" or "Class.method"
    span: str
    layer: str
    count: CountFn | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_advance(args, kwargs, result, counts):
    counts["mobility.vehicle_steps"] += len(result[1].vehicles)


def _count_blockage(args, kwargs, result, counts):
    pairs = len(_arg(args, kwargs, 1, "pairs"))
    boxes = len(_arg(args, kwargs, 3, "box_centers"))
    counts["topology.candidate_pairs"] += pairs
    counts["geometry.pair_box_tests"] += pairs * boxes
    counts["geometry.blocked_pairs"] += int((result > 0).sum())


def _count_edges(args, kwargs, result, counts):
    counts["topology.edges"] += len(result.edges)


def _count_route(args, kwargs, result, counts):
    if result is not None:
        counts["routing.routed"] += 1
        counts["routing.hops"] += result.hop_count


def _count_table(args, kwargs, result, counts):
    counts["routing.tables"] += 1


def _count_plan(args, kwargs, result, counts):
    counts["routing.tables"] += len(result.entries)
    counts["prediction.degraded"] += result.degraded_tracks


def _count_score(args, kwargs, result, counts):
    counts["metrics.valid"] += bool(result)


# Every layer boundary the benchmark measures. Layers: mobility, geometry,
# topology (graph assembly plus the vectorized channel model, which has no
# public function on the hot path), routing, prediction, metrics; the rest
# of the wall time is the engine.
TARGETS = (
    Target("twinroute.mobility", "init_traffic", "mobility.init_traffic", "mobility"),
    Target("twinroute.mobility", "advance_traffic", "mobility.advance_traffic", "mobility", _count_advance),
    Target("twinroute.topology", "blockage_count_matrix", "geometry.blockage_count_matrix", "geometry", _count_blockage),
    Target("twinroute.engine", "build_topology", "topology.build_truth", "topology", _count_edges),
    Target("twinroute.routing", "build_topology", "topology.build_forecast", "topology", _count_edges),
    Target("twinroute.routing", "shortest_route", "routing.shortest_route", "routing", _count_route),
    Target("twinroute.engine", "route_realtime", "routing.route_realtime", "routing", _count_table),
    Target("twinroute.engine", "route_conventional", "routing.route_conventional", "routing", _count_table),
    Target("twinroute.engine", "route_predictive", "routing.route_predictive", "routing", _count_plan),
    Target("twinroute.routing", "predict", "prediction.predict", "prediction"),
    Target("twinroute.prediction", "LearnedPredictor.extrapolate", "prediction.external", "prediction"),
    Target("twinroute.engine", "score_route", "metrics.score_route", "metrics", _count_score),
    Target("twinroute.experiment", "run_single", "experiment.run_single", "engine"),
)

LAYERS = ("mobility", "geometry", "topology", "routing", "prediction", "metrics")


def warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


class Tracer:
    """Span and counter store for one process.

    ``spans`` maps a span name to ``[calls, total_ns, self_ns]``;
    ``durations`` keeps per-call durations of sweep cells
    (``experiment.run_single``). When ``sink_dir`` is set and a top-level
    span closes in a forked child (a sweep pool worker), the child's
    records are appended to ``<sink_dir>/trace-<pid>.jsonl`` and cleared,
    so the parent can merge every worker's spans with :meth:`merge_sink`.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sink_dir: str | Path | None = None,
    ):
        self.clock = clock
        self.sink_dir = Path(sink_dir) if sink_dir is not None else None
        self.pid = os.getpid()
        self.spans: dict[str, list[int]] = {}
        self.durations: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.layer_of: dict[str, str] = {}
        self._stack: list[list[int]] = []  # [start_ns, child_ns]

    def span(self, name: str, layer: str, fn: Callable, count: CountFn | None = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        self.layer_of[name] = layer
        broken = []

        def wrapper(*args, **kwargs):
            frame = [self.clock(), 0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if count is not None and not broken:
                try:
                    count(args, kwargs, result, self.counts)
                except Exception as exc:  # a refactor changed the call's shape
                    broken.append(exc)
                    warn(f"counter for {name} disabled: {exc!r}")
            return result

        wrapper.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _close(self, name: str, frame: list[int]) -> None:
        duration = self.clock() - frame[0]
        self._stack.pop()
        rec = self.spans.setdefault(name, [0, 0, 0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]
        if name == "experiment.run_single":
            self.durations.setdefault(name, []).append(duration)
        if self._stack:
            self._stack[-1][1] += duration
        elif self.sink_dir is not None and os.getpid() != self.pid:
            self._flush_child()

    def _flush_child(self) -> None:
        record = {
            "spans": self.spans,
            "durations": self.durations,
            "counts": dict(self.counts),
            "layer_of": self.layer_of,
        }
        with open(self.sink_dir / f"trace-{os.getpid()}.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
        self.spans, self.durations, self.counts = {}, {}, Counter()

    def merge_sink(self) -> None:
        """Fold every record the pool workers wrote into this tracer."""
        for path in sorted(self.sink_dir.glob("trace-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for name, (calls, total, self_ns) in record["spans"].items():
                    rec = self.spans.setdefault(name, [0, 0, 0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += self_ns
                for name, values in record["durations"].items():
                    self.durations.setdefault(name, []).extend(values)
                self.counts.update(record["counts"])
                self.layer_of.update(record["layer_of"])

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def self_ns(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[2]

    def layer_self_ns(self, layer: str) -> int:
        return sum(rec[2] for name, rec in self.spans.items() if self.layer_of.get(name) == layer)


class Patcher:
    """Context manager that installs tracer wrappers on ``targets``.

    ``absent`` lists the targets that could not be resolved. On exit every
    patched name is restored to the exact object it held before.
    """

    def __init__(self, tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.absent: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patcher":
        for t in self.targets:
            owner, name = self._resolve(t)
            if owner is None:
                self.absent.append(f"{t.module}.{t.attr}")
                warn(f"trace target {t.module}.{t.attr} is absent; its span is not recorded")
                continue
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self.tracer.span(t.span, t.layer, original, t.count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @staticmethod
    def _resolve(t: Target) -> tuple[Any, str]:
        try:
            owner = importlib.import_module(t.module)
        except ImportError:
            return None, ""
        *path, name = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, ""
        if not callable(getattr(owner, "__dict__", {}).get(name)):
            return None, ""
        return owner, name
