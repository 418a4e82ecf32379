"""Output gate and the statistics every metric is reported with.

The gate compares what each operation produced (a strategy variant's run,
or a sweep cell's files) against ``reference.json`` for the default seed,
and against the first pass of the same run for any other seed. An
operation fails when it raised, reported degraded tracks, or produced
different values.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
MIN_BEYOND = 10


def tail_rank(n: int) -> int | None:
    """1-based rank of the tail sample: the highest with MIN_BEYOND above it."""
    return n - MIN_BEYOND if n > MIN_BEYOND else None


def latency_summary(values: list[float]) -> dict:
    """Median and tail of ``values``, with the tail's percentile and the count.

    The tail is the highest percentile that still has at least MIN_BEYOND
    samples beyond it: the value at rank n - MIN_BEYOND, which is the
    100 * (n - MIN_BEYOND) / n percentile by nearest rank.
    """
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1] if rank else None,
        "tail_percentile": 100.0 * rank / len(ordered) if rank else None,
        "samples": len(ordered),
    }


def median_of_passes(per_pass: list[list[float]]) -> list[float]:
    """Per-step median over passes that timed the same steps in order."""
    lengths = {len(p) for p in per_pass}
    if len(lengths) != 1:
        raise ValueError(f"passes timed different step counts: {sorted(lengths)}")
    return [statistics.median(column) for column in zip(*per_pass)]


def load_reference(workload: str) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


def mismatches(outputs: dict, expected: dict) -> set[str]:
    """Keys present in both whose values differ."""
    return {k for k in outputs.keys() & expected.keys() if outputs[k] != expected[k]}


def check(
    passes: list[dict], failed: list[set[str]], operations: list[str], reference: dict | None
) -> tuple[int, list[str]]:
    """Count failed operations over all passes, with the reasons.

    ``passes[i]`` maps each operation id of pass i to its outputs; a sweep
    also has whole-file keys such as ``summary.csv``, and a mismatch there
    fails every operation of that pass. ``failed[i]`` holds the operations
    of pass i that raised or reported degraded tracks. Each pass is
    compared with ``reference`` when given (the default seed), otherwise
    with the first pass. A reference sharing no key with the run fails it.
    """
    expected = passes[0] if reference is None else reference
    if reference is not None and not passes[0].keys() & reference.keys():
        return len(operations) * len(passes), ["reference shares no output with this run"]
    total = 0
    reasons = []
    for i, (got, bad) in enumerate(zip(passes, failed), start=1):
        bad = set(bad)
        for key in sorted(mismatches(got, expected)):
            reasons.append(f"pass {i}: {key} differs from the {'reference' if reference else 'first pass'}")
            bad.update([key] if key in operations else operations)
        missing = [op for op in operations if op not in got and op not in bad]
        if missing:
            reasons.append(f"pass {i}: no output for {len(missing)} operation(s)")
            bad.update(missing)
        total += len(bad)
    return total, reasons
