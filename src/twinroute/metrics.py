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
from typing import IO


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


class ReliabilityAccumulator:
    """Running sums over in-order, duplicate-free timestep outcomes."""

    def __init__(self) -> None:
        self.outcomes: list[TimestepOutcome] = []
        self.satisfied_sum = 0
        self.total_sum = 0
        self._last_timestep: int | None = None

    def record(self, outcome: TimestepOutcome) -> "ReliabilityAccumulator":
        if self._last_timestep is not None and outcome.timestep <= self._last_timestep:
            raise ValueError(
                f"timestep {outcome.timestep} not after {self._last_timestep}"
            )
        self._last_timestep = outcome.timestep
        self.outcomes.append(outcome)
        self.satisfied_sum += outcome.connected_satisfied
        self.total_sum += outcome.connected_total
        return self

    def reliability(self) -> float:
        if self.total_sum == 0:
            raise ValueError(
                "reliability undefined: no connected vehicles over the whole run"
            )
        return self.satisfied_sum / self.total_sum


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
