from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroute.metrics import RunResult, TimestepOutcome, reliability, write_detail

from conftest import detail_counts
from oracles import oracle_reliability


def outcome(ts, satisfied, total):
    return TimestepOutcome(ts, total, satisfied)


def test_running_ratio_of_sums():
    assert reliability([outcome(1, 10, 10), outcome(2, 5, 10)]) == 15 / 20


def test_all_satisfied_is_one():
    assert reliability([outcome(t, 4, 4) for t in range(1, 6)]) == 1.0


def test_three_timestep_hand_case():
    assert reliability([outcome(1, 3, 5), outcome(2, 4, 5), outcome(3, 5, 5)]) == 0.8


def test_ratio_of_sums_not_mean_of_ratios():
    # (1/1, 0/10): pooled ratio 1/11, mean of per-step ratios would be 0.5
    pooled = reliability([outcome(1, 1, 1), outcome(2, 0, 10)])
    assert pooled == 1 / 11
    assert pooled != pytest.approx(0.5)


def test_direct_ratios():
    assert reliability([outcome(1, 999, 1000)]) == 0.999
    assert reliability([outcome(1, 0, 1000)]) == 0.0


def test_empty_timestep_contributes_nothing():
    before = reliability([outcome(1, 3, 4)])
    assert reliability([outcome(1, 3, 4), outcome(2, 0, 0)]) == before


def test_zero_demand_run_has_no_reliability():
    with pytest.raises(ValueError, match="no connected vehicles over the whole run"):
        reliability([outcome(1, 0, 0)])


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
    ratio = reliability([outcome(t, s, tot) for t, (s, tot) in enumerate(pairs, start=1)])
    assert ratio == reliability([outcome(t, s, tot) for t, (s, tot) in enumerate(shuffled, start=1)])
    assert ratio == oracle_reliability(pairs)
    assert 0.0 <= ratio <= 1.0


def test_detail_roundtrip_reapplies_the_ratio():
    outcomes = [outcome(1, 3, 5), outcome(2, 4, 5), outcome(3, 5, 5)]
    result = RunResult("deadbeef", "realtime", reliability(outcomes), outcomes)
    buf = io.StringIO()
    write_detail(result, buf)
    buf.seek(0)
    assert oracle_reliability(detail_counts(buf)) == result.reliability
