"""Per-user service upgrades (Sec. 3.2, "User upgrades").

The paper identifies users observed on two networks of different capacities
— a "slow" and a "fast" network, each identified by the tuple (ISP name,
network prefix, geolocated city) — and compares the demand the same user
generated on each. This module provides the data model for a user's stay on
one service (:class:`ServicePeriod`) and the slow/fast pairing used by
Table 1 and Figs. 4-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..exceptions import AnalysisError

__all__ = [
    "MIN_CAPACITY_RATIO",
    "NetworkId",
    "ServicePeriod",
    "UpgradeObservation",
    "slow_fast_observation",
]

#: Minimum capacity ratio between two stays for the pair to count as a
#: genuine service change rather than measurement noise.
MIN_CAPACITY_RATIO = 1.25


@dataclass(frozen=True)
class NetworkId:
    """The paper's network identity tuple: (ISP name, prefix, city)."""

    isp: str
    prefix: str
    city: str

    def __str__(self) -> str:
        return f"{self.isp}/{self.prefix}/{self.city}"


@dataclass(frozen=True)
class ServicePeriod:
    """One user's contiguous stay on one broadband service.

    Demand summaries are carried both with and without BitTorrent-active
    intervals, since the paper reports the upgrade analyses for both.
    Times are in days since the start of the observation window.
    """

    user_id: str
    network: NetworkId
    start_day: float
    end_day: float
    capacity_mbps: float
    mean_mbps: float
    peak_mbps: float
    mean_no_bt_mbps: float
    peak_no_bt_mbps: float

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise AnalysisError(
                f"service period for {self.user_id} has non-positive duration"
            )
        if self.capacity_mbps <= 0:
            raise AnalysisError(
                f"service period for {self.user_id} has non-positive capacity"
            )

    @property
    def duration_days(self) -> float:
        return self.end_day - self.start_day


@dataclass(frozen=True)
class UpgradeObservation:
    """One user's slow-network vs fast-network demand comparison.

    This is the unit of Table 1's natural experiment: the control is the
    user's own behavior on the slower network, the treatment the behavior
    on the faster one.
    """

    user_id: str
    slow: ServicePeriod
    fast: ServicePeriod

    @property
    def capacity_ratio(self) -> float:
        return self.fast.capacity_mbps / self.slow.capacity_mbps


def slow_fast_observation(
    periods: Iterable[ServicePeriod],
    min_capacity_ratio: float = MIN_CAPACITY_RATIO,
) -> UpgradeObservation | None:
    """Pair one user's slowest and fastest stays, if meaningfully different.

    Returns ``None`` when the user was seen on fewer than two networks or
    the capacity spread does not reach ``min_capacity_ratio``.
    """
    stays = list(periods)
    if len(stays) < 2:
        return None
    users = {p.user_id for p in stays}
    if len(users) != 1:
        raise AnalysisError(f"periods span multiple users: {sorted(users)}")
    slow = min(stays, key=lambda p: p.capacity_mbps)
    fast = max(stays, key=lambda p: p.capacity_mbps)
    if slow.network == fast.network:
        return None
    if fast.capacity_mbps / slow.capacity_mbps < min_capacity_ratio:
        return None
    return UpgradeObservation(user_id=slow.user_id, slow=slow, fast=fast)
