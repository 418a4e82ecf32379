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

The default line-of-sight constant gamma = 68.0 dB is free-space loss at
1 m for 60 GHz (20*log10(4*pi*f/c) = 68.01 dB); each additional blocker
adds 16 dB by default. Both are configuration knobs, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # coefficients to be non-decreasing guarantees that for all d >= 1 m
        # (links shorter than 1 m cannot occur at this geometry).
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
    bounds = np.array([c.max_blockers for c in params.classes[:-1]], dtype=np.int64)
    cls_idx = np.searchsorted(bounds, blockers, side="left")
    rho = np.array([c.rho for c in params.classes])[cls_idx]
    gamma = np.array([c.gamma for c in params.classes])[cls_idx]
    return 10.0 * rho * np.log10(d) + gamma + params.atmospheric_db_per_km * d / 1000.0
