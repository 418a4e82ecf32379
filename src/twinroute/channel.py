"""mmWave path-loss model and link feasibility.

Path loss over a link of length ``d`` meters with ``k`` occluding vehicle
bodies is::

    PL(d) = 10 * rho * log10(d) + gamma + atm * d / 1000      [dB]

where (rho, gamma) come from the blockage class matching ``k`` and ``atm``
is the atmospheric absorption in dB per kilometer (15 dB/km at 60 GHz).
A link is feasible when its path loss fits the link budget and its 3D
length does not exceed the configured maximum range. :func:`path_loss`
is this formula, computed over arrays: the graph builder applies it to
every (step, pair) at once, and it takes single floats as well.
:func:`link_radius` is the distance beyond which no class's loss fits a
budget, which lets the graph builder drop a pair before any occlusion
work.

The default line-of-sight constant gamma = 68.0 dB is free-space loss at
1 m for 60 GHz (20*log10(4*pi*f/c) = 68.01 dB); each additional blocker
adds 16 dB by default. Both are configuration knobs, not measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, slots=True)
class BlockageClass:
    """One row of the blockage table: applies when blockers <= max_blockers.

    ``max_blockers`` of None means the class is unbounded (catches all
    remaining blocker counts); exactly the last class must be unbounded.
    """

    max_blockers: int | None
    rho: float
    gamma: float


def default_channel_params() -> "ChannelParams":
    return ChannelParams(
        classes=(
            BlockageClass(0, 2.0, 68.0),
            BlockageClass(1, 2.0, 84.0),
            BlockageClass(2, 2.0, 100.0),
            BlockageClass(None, 2.0, 116.0),
        )
    )


@dataclass(frozen=True, slots=True)
class ChannelParams:
    classes: tuple[BlockageClass, ...]
    atmospheric_db_per_km: float = 15.0
    max_range_m: float = 150.0

    def problems(self) -> list[tuple[str, str]]:
        """Structural checks; returns (path, message) pairs, empty if sound."""
        bad: list[tuple[str, str]] = []
        if not self.classes:
            bad.append(("classes", "must not be empty"))
            return bad
        if self.classes[-1].max_blockers is not None:
            bad.append(("classes", "last class must be unbounded (max_blockers null)"))
        last_bound = -1
        for i, cls in enumerate(self.classes):
            if cls.rho <= 0:
                bad.append((f"classes[{i}].rho", "must be > 0"))
            if cls.max_blockers is not None:
                if cls.max_blockers <= last_bound:
                    bad.append(
                        (f"classes[{i}].max_blockers", "must be strictly increasing")
                    )
                last_bound = cls.max_blockers
            elif i != len(self.classes) - 1:
                bad.append((f"classes[{i}].max_blockers", "only the last class may be unbounded"))
        # More blockers must never mean less attenuation. Requiring both
        # coefficients to be non-decreasing guarantees that for d >= 1 m
        # only. Generated traffic does bring antennas closer than 1 m (0.034
        # m apart in a 300 s run of 60 vehicles on 2 lanes), and there a
        # class with a larger rho attenuates less: 10 * rho * log10(d) < 0.
        for i in range(1, len(self.classes)):
            prev, cur = self.classes[i - 1], self.classes[i]
            if cur.rho < prev.rho or cur.gamma < prev.gamma:
                bad.append(
                    (f"classes[{i}]", "attenuation must be non-decreasing across classes")
                )
        if self.atmospheric_db_per_km < 0:
            bad.append(("atmospheric_db_per_km", "must be >= 0"))
        if self.max_range_m <= 0:
            bad.append(("max_range_m", "must be > 0"))
        return bad


@lru_cache(maxsize=64)
def _class_table(params: ChannelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class table as read-only arrays, derived once per parameter
    set: the bounds of every class but the last, then every class's rho
    and gamma."""
    classes = params.classes
    table = (
        np.array([c.max_blockers for c in classes[:-1]], dtype=np.int64),
        np.array([c.rho for c in classes], dtype=np.float64),
        np.array([c.gamma for c in classes], dtype=np.float64),
    )
    for column in table:
        column.setflags(write=False)
    return table


def path_loss(
    d: float | np.ndarray, blockers: int | np.ndarray, params: ChannelParams
) -> float | np.ndarray:
    """Path loss in dB for links of length ``d`` meters with ``blockers``
    occluders: a float for one link, an array for an array of them.

    Each blocker count selects the first class whose ``max_blockers``
    bound it does not exceed. Raises ValueError for d <= 0 (the log term
    is singular at zero length; callers must never evaluate a zero-length
    link) and for a negative blocker count.
    """
    d, blockers = np.asarray(d), np.asarray(blockers)
    if (d <= 0).any():
        raise ValueError(f"link length must be > 0, got {d.min()}")
    if (blockers < 0).any():
        raise ValueError(f"blocker count must be >= 0, got {blockers.min()}")
    bounds, rho, gamma = _class_table(params)
    cls_idx = np.searchsorted(bounds, blockers, side="left")
    rho, gamma = rho[cls_idx], gamma[cls_idx]
    return 10.0 * rho * np.log10(d) + gamma + params.atmospheric_db_per_km * d / 1000.0


# The relative slack by which every class's loss must clear the budget at
# the link radius, and the smallest radius returned; see link_radius.
_SLACK = 1e-9
_MIN_RADIUS = 1e-100


def _all_clear(params: ChannelParams, budget_db: float, d: float) -> bool:
    """Whether every class's loss over ``d`` meters, less the slack, exceeds
    the budget, computed in floats."""
    atm_term = params.atmospheric_db_per_km * d / 1000.0
    log_d = math.log10(d)
    for c in params.classes:
        scale = 10.0 * c.rho * (abs(log_d) + 1e-300) + abs(c.gamma) + atm_term
        scale += abs(budget_db) + 1e-300
        if not 10.0 * c.rho * log_d + c.gamma + atm_term - _SLACK * scale > budget_db:
            return False
    return True


@lru_cache(maxsize=64)
def link_radius(params: ChannelParams, budget_db: float) -> float:
    """The distance beyond which no link fits ``budget_db``, whatever its
    blocker count, capped at ``params.max_range_m``: a pair whose ground
    distance exceeds it is infeasible, so the graph builder drops it
    before any occlusion work. Derived once per (params, budget).

    The cut is exact: :func:`path_loss` of every class, as the graph
    builder computes it, exceeds the budget at every length in (R,
    max_range_m]. With u = 2**-53:

    - Each class's exact loss f(d) = 10 rho log10(d) + gamma + atm d / 1000
      strictly increases in d for all d > 0, because validation enforces
      rho > 0 and atm >= 0. The radius must be the largest over all
      classes, not class 0's: below 1 m, where log10(d) < 0, a class with
      a larger rho attenuates less.
    - path_loss evaluates ((10 rho) * l + gamma) + (atm * d) / 1000 in
      seven rounded steps, where l is any log10(d) within one ulp. So
      while nothing overflows, its result lies within
      8u S(d) + (10 rho + 4) 2**-1074 of f(d), with
      S(d) = 10 rho |log10 d| + |gamma| + atm d / 1000; the last term
      covers subnormal results. Then f(d) - 8u S(d) - (that term) strictly
      increases in d as well.
    - R is found by bisection as a length D at which, for every class,
      f(D) less the slack 1e-9 (S(D) + |budget| + 10 rho 1e-300 + 1e-300),
      computed here with math.log10, exceeds the budget. The slack exceeds
      the sum of the graph builder's error above, this evaluation's error
      (for a math.log10 within 10**6 ulps) and the rounding of the final
      subtraction and comparison. So every class's computed loss exceeds
      the budget at every d >= D. A class table or budget large enough to
      overflow, or one that fails the rho > 0 and atm >= 0 checks, gets
      max_range_m.
    - R = D (1 + 1e-12), capped at max_range_m. A pair the ground test drops has ground_sq >
      R * R rounded, so its computed 3-D distance, the rounded sqrt of
      ground_sq + dz * dz, is at least R (1 - 2u) > D. Ground distance
      never exceeds 3-D distance, so a ground test is conservative.
    - R >= 1e-100 > 0, whose square is a normal float, so coincident
      antennas, at ground distance 0, stay in range and still raise.

    Where no such length is at most max_range_m, for example a nearly
    flat loss from a tiny rho with atm 0, R is max_range_m and nothing is
    cut.
    """
    max_range, atm = params.max_range_m, params.atmospheric_db_per_km
    sane = atm >= 0 and all(
        c.rho > 0
        and 10.0 * c.rho * 330.0 + abs(c.gamma) + atm * max_range / 1000.0 + abs(budget_db) < 1e300
        for c in params.classes
    )
    if not (sane and max_range > _MIN_RADIUS and _all_clear(params, budget_db, max_range)):
        return max_range
    # hi always clears, and lo never does unless it is hi
    lo, hi = _MIN_RADIUS, max_range
    if _all_clear(params, budget_db, lo):
        hi = lo
    while hi > lo * (1.0 + 1e-9):
        mid = math.sqrt(lo * hi)
        if _all_clear(params, budget_db, mid):
            hi = mid
        else:
            lo = mid
    return min(max_range, hi * (1.0 + 1e-12))
