from __future__ import annotations

import dataclasses
import io

import pytest

from twinroute.config import default_config
from twinroute.engine import ConfigError, run_single, run_variants
from twinroute.model import NodeId, Strategy

from conftest import TRUCK, make_snapshot, make_vehicle

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


def test_run_variants_rejects_mismatched_traffic():
    other_seed = dataclasses.replace(SMALL, seed=99)
    with pytest.raises(ValueError, match="seed"):
        run_variants({"a": SMALL, "b": other_seed})


def test_predictive_result_carries_error_diagnostics():
    cfg = dataclasses.replace(SMALL, strategy=Strategy.PREDICTIVE)
    result = run_single(cfg)
    assert result.prediction_error_mean is not None
    assert result.prediction_error_mean >= 0.0
    realtime = run_single(SMALL)
    assert realtime.prediction_error_mean is None


def straight_line_stream(n_steps=40, dt=0.25):
    """An empty seed step, then two vehicles driving +x at 1 m per step."""
    snapshots = [make_snapshot([], timestep=0, sim_time=0.0)]
    for k in range(1, n_steps + 1):
        vehicles = [
            make_vehicle(0, -20.0 + k, 1.75, speed=1.0 / dt),
            make_vehicle(1, 10.0 + k, -1.75, speed=1.0 / dt, connected=False),
        ]
        snapshots.append(make_snapshot(vehicles, timestep=k, sim_time=k * dt))
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


def frozen_world(n_steps=40, dt=0.1):
    vehicles = [
        make_vehicle(0, 30.0, 1.75, speed=0.0),
        make_vehicle(1, -60.0, -1.75, speed=0.0),
        make_vehicle(2, 45.0, 1.75, speed=0.0, connected=False, body=TRUCK),
        make_vehicle(3, -20.0, -1.75, speed=0.0),
    ]
    return [
        make_snapshot(vehicles, timestep=k, sim_time=k * dt) for k in range(n_steps)
    ]


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


def test_stream_gap_longer_than_the_interval_keeps_a_predictive_table():
    """A stream that jumps over several planning epochs still has a
    schedule for the step after the jump."""
    vehicle = make_vehicle(0, 30.0, 1.75, speed=0.0)
    stream = [make_snapshot([vehicle], timestep=k) for k in (0, 1, 2, 50, 51)]
    base = default_config(duration=6.0, vehicle_count=1, seed=1)
    results = run_variants(
        {s.value: dataclasses.replace(base, strategy=s) for s in Strategy}, snapshots=stream
    )
    assert {name: r.reliability for name, r in results.items()} == {
        "realtime": 1.0, "predictive": 1.0, "conventional": 1.0
    }


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
    results = run_variants({"rt": SMALL, "conv_dt": conv})
    a = results["rt"].outcomes
    b = results["conv_dt"].outcomes
    assert [(o.timestep, o.per_vehicle) for o in a] == [
        (o.timestep, o.per_vehicle) for o in b
    ]
    assert results["rt"].reliability == results["conv_dt"].reliability


def test_conventional_stale_route_fails_after_relay_despawns():
    """A relay despawning mid-epoch strands the epoch table; the real-time
    controller swaps to the surviving relay immediately."""
    dt = 0.1

    def world(k: int):
        vehicles = [make_vehicle(0, 120.0, 0.0, speed=0.0)]  # beyond direct range
        if k <= 10:
            vehicles.append(make_vehicle(1, 60.0, 0.0, speed=0.0))  # epoch relay
        vehicles.append(make_vehicle(2, 60.0, 8.0, speed=0.0))  # surviving relay
        return make_snapshot(vehicles, timestep=k, sim_time=k * dt)

    snapshots = [world(k) for k in range(31)]
    base = default_config(duration=3.0, vehicle_count=3, seed=1)
    conv = dataclasses.replace(base, strategy=Strategy.CONVENTIONAL)

    rt_result = run_single(base, snapshots)
    conv_result = run_single(conv, snapshots)

    far = NodeId.vehicle(0)
    # real-time: satisfied every step (relay v1 first, then v2)
    assert all(o.per_vehicle[far] for o in rt_result.outcomes)
    # conventional: epoch table built at step 1 uses v1; from step 11 the
    # stale assignment references a despawned node until the next epoch (51)
    for o in conv_result.outcomes:
        assert o.per_vehicle[far] == (o.timestep <= 10)
