from __future__ import annotations

import copy
import dataclasses
import functools
import importlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroute import engine, routing
from twinroute.config import (
    IntersectionGeometry,
    MobilityConfig,
    PredictionConfig,
    ScenarioConfig,
    default_config,
    validate_config,
)
from twinroute.engine import ConfigError, run_single, run_variants
from twinroute.metrics import DETAIL_HEADER, write_detail
from twinroute.mobility import snapshot_stream
from twinroute.model import NodeId, Strategy, VehicleState, seconds_to_steps

from conftest import TRUCK, count_validations, make_snapshot, make_vehicle
from oracles import oracle_run, oracle_score, oracle_score_route

SMALL = default_config(duration=20.0, vehicle_count=8, connected_fraction=0.5, seed=5)


def test_one_step_run_has_one_outcome():
    cfg = default_config(duration=0.1, dt=0.1, vehicle_count=4, seed=2)
    cfg = dataclasses.replace(cfg, mobility=dataclasses.replace(cfg.mobility, spawn_window=0.0))
    result = run_single(cfg)
    assert len(result.outcomes) == 1
    assert result.outcomes[0].timestep == 1


def test_outcome_count_matches_duration():
    result = run_single(SMALL)
    assert len(result.outcomes) == 200
    assert [o.timestep for o in result.outcomes] == list(range(1, 201))


def test_run_is_deterministic():
    a = run_single(SMALL)
    b = run_single(SMALL)
    assert a.reliability == b.reliability
    assert a.config_digest == b.config_digest
    assert [
        (o.timestep, o.connected_total, o.connected_satisfied) for o in a.outcomes
    ] == [(o.timestep, o.connected_total, o.connected_satisfied) for o in b.outcomes]


def test_invalid_config_raises_config_error():
    with pytest.raises(ConfigError) as err:
        run_single(default_config(dt=0.0))
    assert "dt" in str(err.value)


def test_run_variants_matches_run_single():
    cfg_pred = dataclasses.replace(SMALL, strategy=Strategy.PREDICTIVE)
    combined = run_variants({"rt": SMALL, "pred": cfg_pred})
    assert combined["rt"].reliability == run_single(SMALL).reliability
    assert combined["pred"].reliability == run_single(cfg_pred).reliability


def test_realtime_and_conventional_runs_build_no_vehicle_state(monkeypatch):
    """Traffic fills each snapshot's columns and the graph builder reads
    them: a seeded run of the periodic strategies builds no VehicleState."""
    base = default_config(duration=10.0, vehicle_count=30, connected_fraction=0.5, seed=1)
    built = count_validations(monkeypatch, (VehicleState,))
    results = run_variants(
        {s.value: dataclasses.replace(base, strategy=s) for s in (Strategy.REALTIME, Strategy.CONVENTIONAL)}
    )
    assert [len(r.outcomes) for r in results.values()] == [100, 100]
    assert built == []
    make_vehicle(0, 30.0, 0.0)  # the patched check still counts
    assert len(built) == 1


# the fields a variant may set; every other field of ScenarioConfig shapes
# the shared world, so variants must agree on it
VARIANT_FIELDS = {"strategy", "latency_delta", "prediction", "conventional_update_interval", "max_hops"}

# a valid value other than SMALL's for every shared field; a field added to
# ScenarioConfig fails the test below until it is listed here or above
SHARED_CHANGES = {
    "seed": 99,
    "duration": 10.0,
    "dt": 0.05,
    "vehicle_count": 9,
    "connected_fraction": 1.0,
    "intersection": dataclasses.replace(SMALL.intersection, lane_count=2),
    "speed": dataclasses.replace(SMALL.speed, max=15.0),
    "channel": dataclasses.replace(SMALL.channel, max_range_m=140.0),
    "link_budget_db": 100.0,
    "mobility": dataclasses.replace(SMALL.mobility, min_gap=8.0),
    "vehicle_mix": SMALL.vehicle_mix[:1],
}


def test_run_variants_rejects_mismatched_traffic():
    shared = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in VARIANT_FIELDS]
    assert sorted(shared) == sorted(SHARED_CHANGES)
    for name in shared:
        other = dataclasses.replace(SMALL, **{name: SHARED_CHANGES[name]})
        assert validate_config(other).ok, name
        with pytest.raises(ValueError, match=f"^variants disagree on shared field '{name}'$"):
            run_variants({"a": SMALL, "b": other})


def test_run_variants_accepts_variants_that_differ_in_every_variant_field():
    other = dataclasses.replace(
        SMALL,
        strategy=Strategy.PREDICTIVE,
        latency_delta=0.2,
        prediction=dataclasses.replace(SMALL.prediction, interval=1.0, predictor="hold"),
        conventional_update_interval=2.0,
        max_hops=2,
    )
    assert all(getattr(other, name) != getattr(SMALL, name) for name in VARIANT_FIELDS)
    combined = run_variants({"a": SMALL, "b": other})
    assert combined["b"].reliability == run_single(other).reliability


def catch_up_stream(n_steps=16, dt=0.25):
    """Two connected vehicles on one lane, the one behind twice as fast,
    until both stop 4 m apart at step 8. Constant velocity from step 8
    puts both antennas at x = 8 at step 12; the ground truth never does."""
    snapshots = [make_snapshot([], timestep=0)]
    for k in range(1, n_steps + 1):
        moving = k <= 8
        vehicles = [
            make_vehicle(0, -16.0 + 2 * min(k, 8), 1.75, speed=2 / dt if moving else 0.0),
            make_vehicle(1, -4.0 + min(k, 8), 1.75, speed=1 / dt if moving else 0.0),
        ]
        snapshots.append(make_snapshot(vehicles, timestep=k))
    return snapshots


def test_a_run_needs_a_variant_and_a_snapshot():
    with pytest.raises(ValueError, match="no variants to run"):
        run_variants({})
    with pytest.raises(ValueError, match="empty snapshot stream"):
        run_variants({"a": SMALL}, snapshots=[])


def test_a_failing_driver_names_its_variant_and_keeps_its_exception():
    base = default_config(dt=0.25, duration=4.0, vehicle_count=2)
    variants = {"rt": base, "pred": dataclasses.replace(base, strategy=Strategy.PREDICTIVE)}
    message = "timestep 12: antennas of v0 and v1 coincide"
    with pytest.raises(ValueError, match=message) as err:
        run_variants(variants, snapshots=catch_up_stream())
    assert err.value.variant == "pred"
    # a lone run sees the exception as it was, with its variant's name
    with pytest.raises(ValueError, match=message) as err:
        run_single(variants["pred"], catch_up_stream())
    assert err.value.variant == "run"
    assert run_single(base, catch_up_stream()).reliability == 1.0


def test_a_failing_ground_truth_names_no_variant():
    base = default_config(duration=4.0, vehicle_count=2)
    variants = {"rt": base, "pred": dataclasses.replace(base, strategy=Strategy.PREDICTIVE)}
    clash = [make_vehicle(0, 20.0, 1.75), make_vehicle(1, 20.0, 1.75)]
    snapshots = [make_snapshot([], timestep=0), make_snapshot(clash, timestep=1)]
    with pytest.raises(ValueError, match="timestep 1: antennas of v0 and v1 coincide") as err:
        run_variants(variants, snapshots=snapshots)
    assert err.value.variant is None
    # the seed step's graph is first built for a lagged driver, but it is
    # still the shared ground truth
    lagged = {"rt": dataclasses.replace(base, latency_delta=0.1)}
    snapshots = [make_snapshot(clash, timestep=0), make_snapshot([], timestep=1)]
    with pytest.raises(ValueError, match="timestep 0: antennas of v0 and v1 coincide") as err:
        run_variants(lagged, snapshots=snapshots)
    assert err.value.variant is None


def test_predictive_result_carries_error_diagnostics():
    cfg = dataclasses.replace(SMALL, strategy=Strategy.PREDICTIVE)
    result = run_single(cfg)
    assert result.prediction_error_mean is not None
    assert result.prediction_error_mean >= 0.0
    realtime = run_single(SMALL)
    assert realtime.prediction_error_mean is None


def straight_line_stream(n_steps=40, dt=0.25):
    """An empty seed step, then two vehicles driving +x at 1 m per step."""
    snapshots = [make_snapshot([], timestep=0)]
    for k in range(1, n_steps + 1):
        vehicles = [
            make_vehicle(0, -20.0 + k, 1.75, speed=1.0 / dt),
            make_vehicle(1, 10.0 + k, -1.75, speed=1.0 / dt, connected=False),
        ]
        snapshots.append(make_snapshot(vehicles, timestep=k))
    return snapshots


@pytest.mark.parametrize("predictor, error", [("constant_velocity", 0.0), ("hold", 4.5)])
def test_prediction_error_is_the_mean_forecast_displacement(predictor, error):
    """Plans at steps 0, 8, ..., 32 each forecast the next 8 steps. The
    first sees only the empty seed step, so it forecasts nobody; the four
    after it forecast both vehicles. Constant velocity is exact on a
    straight line; hold lags one metre per step ahead, a mean of
    (1 + 2 + ... + 8) / 8 = 4.5 m."""
    cfg = default_config(dt=0.25, duration=10.0, vehicle_count=2, strategy=Strategy.PREDICTIVE)
    cfg = dataclasses.replace(cfg, prediction=dataclasses.replace(cfg.prediction, predictor=predictor))
    result = run_single(cfg, snapshots=straight_line_stream())
    assert len(result.outcomes) == 40
    assert result.prediction_error_mean == error
    assert result.prediction_fallbacks == 0


def test_latency_uses_older_snapshot():
    """With one vehicle crossing behind a truck, the lagged controller keeps
    issuing the pre-blockage route and loses reliability."""
    lagged = dataclasses.replace(SMALL, latency_delta=1.0)
    results = run_variants({"now": SMALL, "lagged": lagged})
    assert results["lagged"].reliability <= results["now"].reliability


SHORT = default_config(duration=2.0, vehicle_count=8, connected_fraction=0.5, seed=5)


def detail_and_peak(cfg: ScenarioConfig) -> tuple[str, int]:
    """The run's detail bytes and the peak bytes that Python allocated
    while it ran."""
    tracemalloc.start()
    try:
        result = run_single(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    detail = io.StringIO()
    write_detail(result, detail)
    return detail.getvalue(), peak


def test_a_held_table_costs_the_same_whatever_its_interval():
    """A conventional window holds one table for every step of its range
    without an entry per step: an interval of 1e9 s, 1e10 steps, writes
    the same detail bytes as one that spans the run, in the same memory."""
    spans_run = dataclasses.replace(
        SHORT, strategy=Strategy.CONVENTIONAL, conventional_update_interval=SHORT.duration
    )
    want, peak = detail_and_peak(spans_run)
    got, long_peak = detail_and_peak(dataclasses.replace(spans_run, conventional_update_interval=1e9))
    assert got == want and want.count("\n") == 21
    assert long_peak < 2 * peak


def test_a_step_a_window_misses_is_a_key_error():
    table = {NodeId.vehicle(0): None}
    held = engine._HeldTable(range(3, 5), table)
    assert list(held) == [3, 4] and len(held) == 2 and dict(held) == {3: table, 4: table}
    assert 2 not in held and 5 not in held and held[4] is table and held[np.int64(3)] is table
    with pytest.raises(KeyError):
        held[5]

    def misses_its_step(timestep, world):
        return routing.PredictivePlan(engine._HeldTable(range(timestep + 1, timestep + 2), table), (), {})

    with pytest.raises(KeyError):
        engine._Driver(misses_its_step, 1).table_for(7, None)


@pytest.mark.parametrize(
    "strategy, field, value",
    [
        (Strategy.REALTIME, "latency_delta", 1e18),
        (Strategy.PREDICTIVE, "latency_delta", 1e18),
        (Strategy.PREDICTIVE, "history_window", 1e300),
    ],
)
def test_any_finite_latency_or_history_window_runs(strategy, field, value):
    """A latency or history window of any finite length runs, though its
    count of steps may not fit a C size: one longer than the run writes
    the bytes of one as long as the run."""

    def config(seconds):
        cfg = dataclasses.replace(SHORT, strategy=strategy)
        if field == "history_window":
            return dataclasses.replace(cfg, prediction=dataclasses.replace(cfg.prediction, history_window=seconds))
        return dataclasses.replace(cfg, latency_delta=seconds)

    assert detail_and_peak(config(value))[0] == detail_and_peak(config(SHORT.duration))[0]


def frozen_world(n_steps=40):
    vehicles = [
        make_vehicle(0, 30.0, 1.75, speed=0.0),
        make_vehicle(1, -60.0, -1.75, speed=0.0),
        make_vehicle(2, 45.0, 1.75, speed=0.0, connected=False, body=TRUCK),
        make_vehicle(3, -20.0, -1.75, speed=0.0),
    ]
    return [make_snapshot(vehicles, timestep=k) for k in range(n_steps)]


def test_frozen_world_all_strategies_agree():
    base = default_config(duration=4.0, vehicle_count=4, seed=1)
    variants = {
        "rt": base,
        "rt_lagged": dataclasses.replace(base, latency_delta=1.0),
        "pred": dataclasses.replace(base, strategy=Strategy.PREDICTIVE),
        "conv": dataclasses.replace(base, strategy=Strategy.CONVENTIONAL),
    }
    results = {
        name: run_single(cfg, frozen_world()) for name, cfg in variants.items()
    }
    values = {name: r.reliability for name, r in results.items()}
    assert len(set(values.values())) == 1, values


@pytest.mark.parametrize(
    "timesteps, message",
    [
        ((0, 1, 2, 50), "timestep 50 does not follow 2"),
        ((0, 1, 2, 2), "timestep 2 does not follow 2"),
        ((0, 1, 2, 1), "timestep 1 does not follow 2"),
    ],
    ids=["gap", "repeated", "backward"],
)
def test_a_stream_that_is_not_consecutive_raises_naming_both_timesteps(timesteps, message):
    vehicle = make_vehicle(0, 30.0, 1.75, speed=0.0)
    stream = [make_snapshot([vehicle], timestep=k) for k in timesteps]
    base = default_config(duration=6.0, vehicle_count=1, seed=1)
    with pytest.raises(ValueError, match=message):
        run_variants(
            {s.value: dataclasses.replace(base, strategy=s) for s in Strategy}, snapshots=stream
        )


SHIFT_BASE = default_config(duration=6.0, vehicle_count=8, connected_fraction=0.5, seed=5)
SHIFT_VARIANTS = {
    "realtime_lagged": dataclasses.replace(SHIFT_BASE, latency_delta=0.3),
    "predictive_lagged": dataclasses.replace(
        SHIFT_BASE, strategy=Strategy.PREDICTIVE, latency_delta=0.3
    ),
    "conventional": dataclasses.replace(SHIFT_BASE, strategy=Strategy.CONVENTIONAL),
}
SHIFT_STREAM = list(snapshot_stream(SHIFT_BASE))


def run_shifted(shift: int):
    """Every variant over the shift stream with ``shift`` added to each
    timestep: (results, route dump rows split at the first comma)."""
    stream = [dataclasses.replace(s, timestep=s.timestep + shift) for s in SHIFT_STREAM]
    dump = io.StringIO()
    results = run_variants(SHIFT_VARIANTS, snapshots=stream, route_dump=dump)
    rows = [line.split(",", 1) for line in dump.getvalue().splitlines()[1:]]
    return results, rows


@functools.cache
def unshifted():
    return run_shifted(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-10**9, max_value=10**9))
@example(1)
@example(10**9)
def test_shifting_every_timestep_shifts_only_the_outcome_timesteps(shift):
    """Runs read timesteps only relative to each other: with lag,
    history windows and planning epochs all counted from the stream, a
    constant offset changes nothing but the timesteps reported."""
    base_results, base_rows = unshifted()
    results, rows = run_shifted(shift)
    assert [(int(ts) - shift, rest) for ts, rest in rows] == [
        (int(ts), rest) for ts, rest in base_rows
    ]
    for name, base in base_results.items():
        result = results[name]
        assert result.reliability == base.reliability
        assert result.prediction_error_mean == base.prediction_error_mean
        assert result.prediction_fallbacks == base.prediction_fallbacks
        assert [
            dataclasses.replace(o, timestep=o.timestep - shift) for o in result.outcomes
        ] == base.outcomes


def test_each_plan_reads_the_lagged_history_window(monkeypatch):
    """A plan made at step ``now`` sees the snapshots ``now - lag - window``
    to ``now - lag``, clipped at the stream's first one."""
    plans = []
    real = engine.route_predictive

    def spy(history, now, *args):
        plans.append((now, [s.timestep for s in history]))
        return real(history, now, *args)

    monkeypatch.setattr(engine, "route_predictive", spy)
    cfg = SHIFT_VARIANTS["predictive_lagged"]  # lag 3 steps, interval 20
    cfg = dataclasses.replace(
        cfg, prediction=dataclasses.replace(cfg.prediction, history_window=0.5)
    )
    # a longer lag in another variant keeps more history than this one reads
    longer = dataclasses.replace(cfg, strategy=Strategy.REALTIME, latency_delta=1.0)
    stream = [dataclasses.replace(s, timestep=s.timestep + 1000) for s in SHIFT_STREAM]
    run_variants({"pred": cfg, "rt": longer}, snapshots=stream)
    assert plans == [
        (1000, [1000]),
        (1020, list(range(1012, 1018))),
        (1040, list(range(1032, 1038))),
    ]


@st.composite
def whole_runs(draw) -> ScenarioConfig:
    """A scenario of up to 12 vehicles over up to 8 s, on short arms so
    that vehicles also leave, with every schedule setting drawn."""
    interval = draw(st.integers(1, 30)) / 10
    return default_config(
        seed=draw(st.integers(0, 999)),
        duration=draw(st.integers(1, 80)) / 10,
        vehicle_count=draw(st.integers(1, 12)),
        connected_fraction=draw(st.integers(1, 10)) / 10,
        latency_delta=draw(st.integers(0, 10)) / 10,
        prediction=PredictionConfig(
            horizon=interval,
            interval=interval,
            predictor=draw(st.sampled_from(["hold", "constant_velocity", "constant_turn_rate"])),
            # analytic predictors read the last one or two states, so only a
            # short window shows where it starts
            history_window=draw(st.sampled_from([0.1, 0.2, 0.5, 2.0])),
        ),
        conventional_update_interval=draw(st.integers(1, 30)) / 10,
        max_hops=draw(st.none() | st.integers(1, 3)),
        intersection=IntersectionGeometry(arm_length=40.0),
        mobility=MobilityConfig(spawn_window=2.0),
    )


@st.composite
def held_windows(draw) -> dict[str, ScenarioConfig]:
    """Realtime at zero latency, realtime with a drawn latency and
    conventional, as variants of one drawn scene: up to 30 vehicles on one
    or two lanes over up to 20 s, all released in the first half second;
    runs that long hold steps whose walked routes break."""
    cfg = default_config(
        seed=draw(st.integers(0, 999)),
        duration=draw(st.integers(1, 200)) / 10,
        vehicle_count=draw(st.integers(1, 30)),
        connected_fraction=draw(st.integers(1, 10)) / 10,
        conventional_update_interval=draw(st.integers(1, 30)) / 10,
        max_hops=draw(st.none() | st.integers(1, 3)),
    )
    cfg = dataclasses.replace(
        cfg,
        intersection=IntersectionGeometry(lane_count=draw(st.integers(1, 2))),
        mobility=MobilityConfig(spawn_window=0.5),
    )
    return {
        "realtime": dataclasses.replace(cfg, strategy=Strategy.REALTIME),
        "realtime_lag": dataclasses.replace(
            cfg, strategy=Strategy.REALTIME, latency_delta=draw(st.integers(1, 10)) / 10
        ),
        "conventional": dataclasses.replace(cfg, strategy=Strategy.CONVENTIONAL),
    }


@settings(max_examples=60, deadline=None)
@given(variants=held_windows())
def test_a_table_scored_on_its_own_graph_is_counted_as_the_walk_scores_it(variants):
    """Every outcome, and every ``valid`` cell of the route dump, equals the
    hop walk's, whether the engine counts the table's routes (routed on the
    truth graph itself: realtime at zero latency, conventional at its
    replan steps) or walks them (every other step)."""
    scored = []
    real = engine._score

    def spy(table, truth, timestep, routed_on):
        got = real(table, truth, timestep, routed_on)
        scored.append((table, truth, routed_on is truth, got))
        return got

    dump = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_score", spy)
        try:
            run_variants(variants, route_dump=dump)
        except ValueError as exc:  # no connected vehicle was scored; the steps were
            assert "reliability undefined" in str(exc)
    want = [routing.ROUTE_DUMP_HEADER]
    for table, truth, _, got in scored:
        assert dataclasses.astuple(got) == oracle_score(table, truth, got.timestep)
        for vehicle, route in table.items():
            hops = ">".join(map(str, route)) if route else ""
            want.append(f"{got.timestep},{vehicle},{hops},{int(oracle_score_route(route, truth))}\n")
    assert dump.getvalue() == "".join(want)
    cfg = variants["conventional"]
    period = seconds_to_steps(cfg.conventional_update_interval, cfg.dt)
    steps = range(1, len(scored) // 3 + 1)
    assert [counted for _, _, counted, _ in scored[0::3]] == [True for _ in steps]
    assert [counted for _, _, counted, _ in scored[1::3]] == [False for _ in steps]
    assert [counted for _, _, counted, _ in scored[2::3]] == [(t - 1) % period == 0 for t in steps]


def test_every_strategy_matches_the_whole_run_oracle(fuzz_scale):
    """Differential testing of the engine's clock (McKeeman, 1998): the
    three strategies of one drawn scenario, run as variants of one world,
    write the detail bytes and the prediction error mean that
    ``oracle_run`` derives from the schedule's definitions."""

    @settings(max_examples=100 * fuzz_scale, deadline=None)
    @given(whole_runs())
    def check(cfg):
        snapshots = list(snapshot_stream(cfg))
        variants = {s.value: dataclasses.replace(cfg, strategy=s) for s in Strategy}
        expected = {name: oracle_run(v, snapshots) for name, v in variants.items()}
        if not any(total for _, total, _, _ in expected["realtime"][0]):
            with pytest.raises(ValueError, match="reliability undefined"):
                run_variants(variants, snapshots=snapshots)
            return
        results = run_variants(variants, snapshots=snapshots)
        for name, (rows, error_mean) in expected.items():
            detail = io.StringIO()
            write_detail(results[name], detail)
            assert detail.getvalue() == DETAIL_HEADER + "".join(
                f"{t},{name},{total},{satisfied},{hops!r}\n" for t, total, satisfied, hops in rows
            ), name
            assert results[name].prediction_error_mean == error_mean, name

    check()


@st.composite
def generated_worlds(draw) -> dict[str, ScenarioConfig]:
    """The three strategies of one drawn scenario: up to 40 vehicles on one
    or two lanes over up to 10 s, with a drawn latency."""
    cfg = default_config(
        seed=draw(st.integers(0, 999)),
        duration=draw(st.integers(1, 100)) / 10,
        vehicle_count=draw(st.integers(1, 40)),
        connected_fraction=draw(st.integers(1, 10)) / 10,
        latency_delta=draw(st.integers(0, 10)) / 10,
    )
    lanes = draw(st.integers(1, 2))
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=lanes)
    )
    return {s.value: dataclasses.replace(cfg, strategy=s) for s in Strategy}


def run_dumped(variants, snapshots=None):
    """(the results, or the ValueError raised, the route dump, the topology dump)."""
    routes, topology = io.StringIO(), io.StringIO()
    try:
        results = run_variants(variants, snapshots, route_dump=routes, topology_dump=topology)
    except ValueError as exc:
        results = repr(exc)
    return results, routes.getvalue(), topology.getvalue()


def test_reading_generated_traffic_ahead_changes_no_output(fuzz_scale):
    """A run that generates its traffic reads it ahead and builds truth
    runs; handed the same stream, the engine reads one snapshot at a time
    and builds one graph per step. Every result field and every dumped
    byte agree."""

    @settings(max_examples=25 * fuzz_scale, deadline=None)
    @given(generated_worlds())
    def check(variants):
        base = next(iter(variants.values()))
        assert run_dumped(variants) == run_dumped(variants, snapshot_stream(base))

    check()


def test_generated_traffic_is_read_ahead_and_built_in_runs(monkeypatch):
    """The engine holds at most ``READ_AHEAD`` unscored snapshots of the
    traffic it generates; each truth build covers consecutive snapshots
    that share one fleet, at their own poses; and each scored step's graph
    is built exactly once."""
    read = {}  # timestep -> snapshot
    unscored = []  # per snapshot read, how many read ones are not yet scored
    scored = set()
    builds = []  # the timesteps of each truth build
    real_stream, real_build, real_score = (
        engine.snapshot_stream, engine.build_topologies, engine._score,
    )

    def spy_stream(config):
        for snap in real_stream(config):
            read[snap.timestep] = snap
            unscored.append(len(read) - 1 - len(scored))  # the first is never scored
            yield snap

    def spy_build(snapshot, timesteps, xy_yaw, *args):
        builds.append(list(timesteps))
        assert timesteps == list(range(timesteps[0], timesteps[0] + len(timesteps)))
        for ts, poses in zip(timesteps, xy_yaw):
            snap = read[ts]
            # generated traffic hands one fleet object to a vehicle set's snapshots
            assert snap.fleet is snapshot.fleet and snap.rsu_position == snapshot.rsu_position
            assert np.array_equal(poses, snap.xy_yaw)
        return real_build(snapshot, timesteps, xy_yaw, *args)

    def spy_score(table, truth, timestep, routed_on):
        scored.add(timestep)
        return real_score(table, truth, timestep, routed_on)

    monkeypatch.setattr(engine, "snapshot_stream", spy_stream)
    monkeypatch.setattr(engine, "build_topologies", spy_build)
    monkeypatch.setattr(engine, "_score", spy_score)
    cfg = default_config(
        duration=20.0, vehicle_count=20, connected_fraction=0.5, seed=3, latency_delta=0.3
    )
    run_variants({s.value: dataclasses.replace(cfg, strategy=s) for s in Strategy})
    assert max(unscored) == engine.READ_AHEAD
    assert max(map(len, builds)) == engine.READ_AHEAD
    built = [ts for run in builds for ts in run]
    assert len(built) == len(set(built))  # no graph is built twice
    assert set(built) - {0} == scored == set(range(1, 201))


def test_a_truth_run_needs_the_next_step_and_the_same_vehicles():
    """Only the next timestep with equal ids, bodies, antennas, connected
    mask and RSU joins a truth run; poses may differ."""
    vehicles = [make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 3.0, connected=False)]
    first = make_snapshot(vehicles, timestep=4)

    def step(timestep=5, rsu_height=5.0, **changes):
        moved = [dataclasses.replace(v, position=(v.position[0] + 1.0, 0.0, 0.0)) for v in vehicles]
        moved[1] = dataclasses.replace(moved[1], **changes)
        return make_snapshot(moved, timestep=timestep, rsu_height=rsu_height)

    assert step().fleet is not first.fleet  # equal, not shared
    assert engine._same_vehicles(first, step())
    assert not engine._same_vehicles(first, step(timestep=6))
    assert not engine._same_vehicles(first, step(rsu_height=6.0))
    assert not engine._same_vehicles(first, step(id=NodeId.vehicle(2)))
    assert not engine._same_vehicles(first, step(connected=True))
    assert not engine._same_vehicles(first, step(antenna_height=1.7))
    assert not engine._same_vehicles(first, step(dimensions=(4.6, 1.8, 1.5)))


def test_equal_fleets_that_are_not_shared_still_join_one_truth_run(monkeypatch):
    """A truth run needs equal fleets, not one fleet object: a generated
    stream whose every snapshot is a copy, with a fleet of its own, is
    built in the same runs and gives the same output bytes."""
    cfg = default_config(duration=10.0, vehicle_count=20, connected_fraction=0.5, seed=4)
    variants = {s.value: dataclasses.replace(cfg, strategy=s) for s in Strategy}
    real_stream, real_build = engine.snapshot_stream, engine.build_topologies
    runs = []

    def spy_build(snapshot, timesteps, *args):
        runs.append(list(timesteps))
        return real_build(snapshot, timesteps, *args)

    monkeypatch.setattr(engine, "build_topologies", spy_build)
    shared = run_dumped(variants)
    shared_runs, runs[:] = list(runs), []
    monkeypatch.setattr(
        engine, "snapshot_stream", lambda config: map(copy.deepcopy, real_stream(config))
    )
    assert run_dumped(variants) == shared
    assert runs == shared_runs and max(map(len, runs)) == engine.READ_AHEAD


def test_a_failed_truth_build_surfaces_at_its_own_step(monkeypatch):
    """A truth run read ahead that fails at a later step still scores and
    dumps every step before it, as a stream read one snapshot at a time
    does; the error names no variant."""
    cfg = default_config(duration=3.0, vehicle_count=10, connected_fraction=1.0, seed=2)
    attempts = []
    real = engine.build_topologies

    def failing(snapshot, timesteps, *args):
        attempts.append(list(timesteps))
        if 12 in timesteps:
            raise RuntimeError("no graph at 12")
        return real(snapshot, timesteps, *args)

    monkeypatch.setattr(engine, "build_topologies", failing)
    dumps = []
    for snapshots in (None, snapshot_stream(cfg)):
        routes = io.StringIO()
        with pytest.raises(RuntimeError, match="no graph at 12") as err:
            run_variants({"run": cfg}, snapshots, route_dump=routes)
        assert err.value.variant is None
        dumps.append(routes.getvalue())
    assert any(run[0] < 12 in run for run in attempts)  # a run read ahead failed
    assert dumps[0] == dumps[1]
    assert int(dumps[0].splitlines()[-1].split(",")[0]) == 11


def test_a_planning_epoch_builds_only_the_steps_it_applies(monkeypatch):
    """With a 3 s horizon and a 1 s interval, each epoch forecasts and
    builds the graphs of the 10 steps applied before the next one, not
    the 30 of the horizon."""
    built = []
    real = routing.build_topologies

    def spy(vehicles, timesteps, *args):
        built.append(list(timesteps))
        return real(vehicles, timesteps, *args)

    monkeypatch.setattr(routing, "build_topologies", spy)
    cfg = dataclasses.replace(
        SMALL,
        duration=5.0,
        strategy=Strategy.PREDICTIVE,
        prediction=dataclasses.replace(SMALL.prediction, horizon=3.0, interval=1.0),
    )
    run_single(cfg)
    assert built == [list(range(now + 1, now + 11)) for now in range(0, 50, 10)]


def test_replay_scores_all_after_the_seed_snapshot():
    cfg = default_config(duration=4.0, vehicle_count=4, seed=1)
    result = run_single(cfg, frozen_world(25))
    assert len(result.outcomes) == 24


def test_dump_streams_populated():
    routes = io.StringIO()
    topo = io.StringIO()
    cfg = default_config(duration=2.0, vehicle_count=5, seed=4)
    run_single(cfg, route_dump=routes, topology_dump=topo)
    route_lines = routes.getvalue().splitlines()
    topo_lines = topo.getvalue().splitlines()
    assert route_lines[0] == "timestep,vehicle,hops,valid"
    assert topo_lines[0] == "timestep,node_a,node_b,distance_m,blockers,path_loss_db"
    assert len(route_lines) > 1 and len(topo_lines) > 1


def test_single_hop_restriction_never_beats_multihop():
    capped = dataclasses.replace(SMALL, max_hops=1)
    results = run_variants({"multi": SMALL, "single": capped})
    assert results["single"].reliability <= results["multi"].reliability


def test_conventional_at_dt_interval_equals_fresh_realtime():
    """Refreshing the conventional table every step removes its staleness."""
    conv = dataclasses.replace(
        SMALL, strategy=Strategy.CONVENTIONAL, conventional_update_interval=SMALL.dt
    )
    rt_dump, conv_dump = io.StringIO(), io.StringIO()
    rt = run_single(SMALL, route_dump=rt_dump)
    conv_dt = run_single(conv, route_dump=conv_dump)
    assert rt_dump.getvalue().count("\n") > 200
    assert rt_dump.getvalue() == conv_dump.getvalue()
    assert rt.reliability == conv_dt.reliability


def test_conventional_stale_route_fails_after_relay_despawns():
    """A relay despawning mid-epoch strands the epoch table; the real-time
    controller swaps to the surviving relay immediately."""

    def world(k: int):
        vehicles = [make_vehicle(0, 120.0, 0.0, speed=0.0)]  # beyond direct range
        if k <= 10:
            vehicles.append(make_vehicle(1, 60.0, 0.0, speed=0.0))  # epoch relay
        vehicles.append(make_vehicle(2, 60.0, 8.0, speed=0.0))  # surviving relay
        return make_snapshot(vehicles, timestep=k)

    snapshots = [world(k) for k in range(31)]
    base = default_config(duration=3.0, vehicle_count=3, seed=1)
    conv = dataclasses.replace(base, strategy=Strategy.CONVENTIONAL)

    def far_valid(cfg):
        """Timestep -> the ``valid`` column of the far vehicle's dumped route."""
        dump = io.StringIO()
        run_single(cfg, snapshots, route_dump=dump)
        rows = [line.split(",") for line in dump.getvalue().splitlines()[1:]]
        return {int(ts): valid == "1" for ts, vehicle, _, valid in rows if vehicle == "v0"}

    steps = range(1, 31)
    # real-time: satisfied every step (relay v1 first, then v2)
    assert far_valid(base) == {t: True for t in steps}
    # conventional: epoch table built at step 1 uses v1; from step 11 the
    # stale assignment references a despawned node until the next epoch (51)
    assert far_valid(conv) == {t: t <= 10 for t in steps}


@pytest.mark.parametrize(
    "module, name",
    [
        ("twinroute.engine", "build_topologies"),
        ("twinroute.topology", "blockage_count_matrix"),
        ("twinroute.engine", "route_realtime"),
        ("twinroute.engine", "route_predictive"),
        ("twinroute.engine", "score_route"),
        ("twinroute.mobility", "init_traffic"),
        ("twinroute.mobility", "advance_traffic"),
        ("twinroute.routing", "predict"),
        ("twinroute.prediction", "LearnedPredictor.extrapolate"),
    ],
)
def test_the_names_the_benchmark_tracer_wraps_resolve(module, name):
    """``bench/tracing.py`` wraps these names where the engine and the
    builder look them up; a rename leaves its counters at 0 with only a
    warning, so it must fail here. A dotted name resolves attribute by
    attribute."""
    target = functools.reduce(getattr, name.split("."), importlib.import_module(module))
    assert callable(target)


def test_a_graph_has_one_edges_row_per_link():
    # the tracer counts topology.edges as the len(graph.edges) of each graph built
    snap = make_snapshot([make_vehicle(0, 20.0, 0.0), make_vehicle(1, 25.0, 0.0)])
    (g,) = engine.build_topologies(snap, [snap.timestep], snap.xy_yaw[None], SMALL.channel, 130.0)
    assert len(g.edges) == len(g.edge_loss) == 3
    assert [g.linked(a, b) for a, b in ((0, 1), (0, 2), (1, 2), (1, 1))] == [True, True, True, False]
