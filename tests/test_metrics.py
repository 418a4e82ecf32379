from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroute.metrics import ReliabilityAccumulator, RunResult, TimestepOutcome, write_detail

from conftest import detail_counts
from oracles import oracle_reliability


def outcome(ts, satisfied, total):
    return TimestepOutcome(ts, total, satisfied)


def test_running_ratio_of_sums():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 10, 10)).record(outcome(2, 5, 10))
    assert acc.reliability() == 15 / 20


def test_all_satisfied_is_one():
    acc = ReliabilityAccumulator()
    for t in range(1, 6):
        acc.record(outcome(t, 4, 4))
    assert acc.reliability() == 1.0


def test_three_timestep_hand_case():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 3, 5)).record(outcome(2, 4, 5)).record(outcome(3, 5, 5))
    assert acc.reliability() == 0.8


def test_ratio_of_sums_not_mean_of_ratios():
    # (1/1, 0/10): pooled ratio 1/11, mean of per-step ratios would be 0.5
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 1, 1)).record(outcome(2, 0, 10))
    assert acc.reliability() == 1 / 11
    assert acc.reliability() != pytest.approx(0.5)


def test_direct_ratios():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 999, 1000))
    assert acc.reliability() == 0.999
    acc2 = ReliabilityAccumulator()
    acc2.record(outcome(1, 0, 1000))
    assert acc2.reliability() == 0.0


def test_empty_timestep_contributes_nothing():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 3, 4))
    before = acc.reliability()
    acc.record(outcome(2, 0, 0))
    assert acc.reliability() == before


def test_duplicate_or_backward_timestep_rejected():
    acc = ReliabilityAccumulator()
    acc.record(outcome(5, 1, 1))
    with pytest.raises(ValueError):
        acc.record(outcome(5, 1, 1))
    with pytest.raises(ValueError):
        acc.record(outcome(4, 1, 1))


def test_zero_demand_run_has_no_reliability():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 0, 0))
    with pytest.raises(ValueError):
        acc.reliability()


def test_satisfied_bounded_by_total():
    with pytest.raises(ValueError):
        outcome(1, 5, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).map(
            lambda p: (min(p), max(p))
        ),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_reliability_invariant_under_reordering(pairs, rnd):
    if sum(t for _, t in pairs) == 0:
        return
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    acc1 = ReliabilityAccumulator()
    acc2 = ReliabilityAccumulator()
    for t, (s, tot) in enumerate(pairs, start=1):
        acc1.record(outcome(t, s, tot))
    for t, (s, tot) in enumerate(shuffled, start=1):
        acc2.record(outcome(t, s, tot))
    assert acc1.reliability() == acc2.reliability()
    assert acc1.reliability() == oracle_reliability(pairs)
    assert 0.0 <= acc1.reliability() <= 1.0


def test_detail_roundtrip_reapplies_the_ratio():
    acc = ReliabilityAccumulator()
    acc.record(outcome(1, 3, 5)).record(outcome(2, 4, 5)).record(outcome(3, 5, 5))
    result = RunResult("deadbeef", "realtime", acc.reliability(), acc.outcomes)
    buf = io.StringIO()
    write_detail(result, buf)
    buf.seek(0)
    assert oracle_reliability(detail_counts(buf)) == result.reliability
