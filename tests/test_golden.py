"""Output bytes pinned across implementations.

Criterion 9 only compares two runs of the same code. These digests were
recorded with a heap-Dijkstra router over a dict-based graph, so they
check the array graph and the layered router against an independent
implementation. Any change to graph assembly, routing or scoring must
reproduce them exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io

import pytest

import twinroute as tr
from twinroute.cli import main
from twinroute.metrics import summary_row, write_detail


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pinned(variants):
    """(per-variant (detail digest, reliability), topology digest, route digest)."""
    topology, routes = io.StringIO(), io.StringIO()
    results = tr.run_variants(variants, route_dump=routes, topology_dump=topology)
    outputs = {}
    for name, result in results.items():
        detail = io.StringIO()
        write_detail(result, detail)
        outputs[name] = (sha256(detail.getvalue()), result.reliability)
    return outputs, sha256(topology.getvalue()), sha256(routes.getvalue())


def test_dense_connected_realtime_pinned():
    cfg = tr.default_config(duration=10.0, vehicle_count=60, connected_fraction=1.0)
    cfg = dataclasses.replace(
        cfg, intersection=dataclasses.replace(cfg.intersection, lane_count=2)
    )
    outputs, topology, routes = run_pinned({"realtime": cfg})
    assert outputs == {
        "realtime": ("9797653286920496fc0583b4d267fe95af268f8ee42e6e49117d361e7ee23254", 1.0),
    }
    assert topology == "34a15f6bfc6d530c2c7483e8da805e4216fdbc5e006c64ff168a391d65dac972"
    assert routes == "5a67755292cd0b3b85acb2fcb9fd0950054dead7f8dc8b1f29f552e3e0de707d"


def test_mixed_three_strategies_pinned():
    base = tr.default_config(duration=10.0, vehicle_count=30, connected_fraction=0.5)
    variants = {s.value: dataclasses.replace(base, strategy=s) for s in tr.Strategy}
    outputs, topology, routes = run_pinned(variants)
    assert outputs == {
        "realtime": ("6b1a2feb13331f56dab9aec70bea82f7deacfba62f71e9a0f4a3b0f134f74671", 0.9687150837988827),
        "predictive": ("507900025421ae6faa17fd0bd8582c9a9f2173d98e6ce454583f660d86fcb91a", 0.7754189944134078),
        "conventional": ("78db424898d178f36e665670792bd03167014cbd95d574ab121e1a566fc8d090", 0.44692737430167595),
    }
    assert topology == "8e3fbf6236a8d705cfb02c3436a737353582f007c4ee94e8b932fabf3f850872"
    assert routes == "0ae8c82e41c5dcd5911a8288cb35b4722a3a21853b384befee4c027e79f23a59"


def test_cli_dump_topology_matches_pinned_bytes(tmp_path):
    cfg = tr.default_config(duration=10.0, vehicle_count=30, connected_fraction=0.5)
    path = tmp_path / "scenario.yaml"
    tr.save_config(cfg, path)
    assert main(["run", str(path), "--out-dir", str(tmp_path), "--dump-topology"]) == 0
    topology = (tmp_path / "topology.csv").read_text(encoding="utf-8")
    assert sha256(topology) == "8e3fbf6236a8d705cfb02c3436a737353582f007c4ee94e8b932fabf3f850872"


def test_mixed_predictive_summary_row_pinned():
    """Reliability and the forecast error the engine reports, as summary.csv writes them."""
    base = tr.default_config(duration=10.0, vehicle_count=30, connected_fraction=0.5)
    cfg = dataclasses.replace(base, strategy=tr.Strategy.PREDICTIVE)
    result = tr.run_single(cfg)
    assert summary_row(result, 30, 0.5, cfg.seed) == (
        "predictive,30,0.5,1,0.7754189944134078,0.2012383230837274,b72f4701fa5cb398\n"
    )
    assert result.prediction_fallbacks == 1


def test_lagged_overlapping_turn_rate_predictive_pinned():
    """Epochs that overlap (3 s horizon, 1 s interval) and bridge a 0.3 s
    lag, with the constant-turn-rate predictor and a two-hop cap."""
    base = tr.default_config(duration=10.0, vehicle_count=30, connected_fraction=0.5)
    cfg = dataclasses.replace(
        base,
        strategy=tr.Strategy.PREDICTIVE,
        latency_delta=0.3,
        max_hops=2,
        prediction=dataclasses.replace(
            base.prediction, horizon=3.0, interval=1.0, predictor="constant_turn_rate"
        ),
    )
    routes = io.StringIO()
    result = tr.run_variants({"predictive": cfg}, route_dump=routes)["predictive"]
    detail = io.StringIO()
    write_detail(result, detail)
    assert sha256(detail.getvalue()) == "9dc2b6afff9b370d887984ddbd1be53a2e915712e2025ef2a38a864268c261db"
    assert result.reliability == 0.8145251396648044
    assert result.prediction_error_mean == 0.32985195745226914
    assert result.prediction_fallbacks == 4
    assert sha256(routes.getvalue()) == "c0131cde6457321104b754ba7900e84643074ad72cf59cbf80c7163dba5daf15"


@pytest.mark.parametrize("max_hops", [None, 2])
def test_dense_connected_predictive_pinned(max_hops):
    """60 connected vehicles on 2 lanes, routed from forecasts: about a
    quarter of the routed nodes lie beyond the RSU's row. No route is
    deeper than two hops, so the cap changes no byte. The topology dump
    is left out, so the digests do not depend on numpy's SIMD kernels."""
    base = tr.default_config(
        duration=10.0, vehicle_count=60, connected_fraction=1.0,
        strategy=tr.Strategy.PREDICTIVE, max_hops=max_hops,
    )
    cfg = dataclasses.replace(
        base, intersection=dataclasses.replace(base.intersection, lane_count=2)
    )
    routes = io.StringIO()
    result = tr.run_variants({"predictive": cfg}, route_dump=routes)["predictive"]
    detail = io.StringIO()
    write_detail(result, detail)
    assert sha256(detail.getvalue()) == "90d6ca27ee68794a754f6ab7ace3ac99d704dda6710855b163b1c31cfaab5d7d"
    assert result.reliability == 0.7728355837966641
    assert sha256(routes.getvalue()) == "0a34c88d8585df212fde91d70d2d9b1d46d68be25ee5b551802fcbe361cfe582"
