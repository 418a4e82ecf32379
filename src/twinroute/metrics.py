"""Reliability accounting.

Reliability is the ratio of sums over the whole run::

    reliability = sum_t satisfied_t / sum_t connected_t

i.e. total satisfied connected-vehicle demands over total connected-vehicle
counts. This is NOT the mean of per-timestep ratios: timesteps with more
connected vehicles weigh more. A timestep with zero connected vehicles
contributes nothing to either sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence


@dataclass
class TimestepOutcome:
    """Connection counts for one scored timestep: how many connected
    vehicles there were, how many of their routes held in the ground
    truth, and the mean hop count of those that held."""

    timestep: int
    connected_total: int
    connected_satisfied: int
    mean_hops_of_valid_routes: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.connected_satisfied <= self.connected_total):
            raise ValueError(
                f"satisfied count {self.connected_satisfied} outside "
                f"[0, {self.connected_total}]"
            )


def reliability(outcomes: Sequence[TimestepOutcome]) -> float:
    """The ratio of sums over a run's timestep outcomes."""
    total = sum(o.connected_total for o in outcomes)
    if total == 0:
        raise ValueError("reliability undefined: no connected vehicles over the whole run")
    return sum(o.connected_satisfied for o in outcomes) / total


@dataclass
class RunResult:
    """Everything one run produced."""

    config_digest: str
    strategy: str
    reliability: float
    outcomes: list[TimestepOutcome]
    prediction_error_mean: float | None = None
    prediction_fallbacks: int = 0


DETAIL_HEADER = "timestep,strategy,connected_total,connected_satisfied,mean_hops\n"
SUMMARY_HEADER = (
    "strategy,vehicle_count,connected_fraction,seed,reliability,"
    "prediction_error_mean,config_digest\n"
)


def write_detail(result: RunResult, out: IO[str]) -> None:
    out.write(DETAIL_HEADER)
    for o in result.outcomes:
        out.write(
            f"{o.timestep},{result.strategy},{o.connected_total},"
            f"{o.connected_satisfied},{o.mean_hops_of_valid_routes!r}\n"
        )


def summary_row(
    result: RunResult, vehicle_count: int, connected_fraction: float, seed: int
) -> str:
    err = "" if result.prediction_error_mean is None else repr(result.prediction_error_mean)
    return (
        f"{result.strategy},{vehicle_count},{connected_fraction!r},{seed},"
        f"{result.reliability!r},{err},{result.config_digest}\n"
    )
