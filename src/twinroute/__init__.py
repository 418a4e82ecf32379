"""twinroute: deterministic intersection simulator for digital-twin-managed
multi-hop mmWave V2X routing.

The pipeline per timestep: advance traffic -> extract the connectivity
topology -> compute route tables (real-time, predictive or conventional
interval-based) -> score assignments against the ground-truth topology ->
accumulate reliability.
"""

from .channel import BlockageClass, ChannelParams, default_channel_params, path_loss
from .config import (
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    validate_config,
)
from .engine import ConfigError, run_single, run_variants
from .experiment import SweepCell, SweepSpec, load_sweep_spec, run_sweep
from .metrics import RunResult, TimestepOutcome
from .mobility import TrafficState, advance_traffic, init_traffic, snapshot_stream
from .model import Fleet, NodeId, Strategy, ValidationReport, VehicleState, WorldSnapshot
from .prediction import (
    ConstantTurnRatePredictor,
    ConstantVelocityPredictor,
    HoldPredictor,
    LearnedPredictor,
    PredictedTrack,
    Tracks,
    make_predictor,
    predict,
)
from .routing import (
    PredictivePlan,
    RouteTable,
    route_predictive,
    route_realtime,
    score_route,
)
from .topology import ConnectivityGraph, build_topologies
from .trace import read_trace, tee_trace

__version__ = "0.1.0"

__all__ = [
    "BlockageClass",
    "ChannelParams",
    "ConfigError",
    "ConnectivityGraph",
    "ConstantTurnRatePredictor",
    "ConstantVelocityPredictor",
    "Fleet",
    "HoldPredictor",
    "LearnedPredictor",
    "NodeId",
    "PredictedTrack",
    "PredictivePlan",
    "RouteTable",
    "RunResult",
    "ScenarioConfig",
    "Strategy",
    "SweepCell",
    "SweepSpec",
    "TimestepOutcome",
    "Tracks",
    "TrafficState",
    "ValidationReport",
    "VehicleState",
    "WorldSnapshot",
    "advance_traffic",
    "build_topologies",
    "config_from_dict",
    "config_to_dict",
    "default_channel_params",
    "default_config",
    "init_traffic",
    "load_config",
    "load_sweep_spec",
    "make_predictor",
    "path_loss",
    "predict",
    "read_trace",
    "route_predictive",
    "route_realtime",
    "run_single",
    "run_sweep",
    "run_variants",
    "save_config",
    "score_route",
    "snapshot_stream",
    "tee_trace",
    "validate_config",
]
