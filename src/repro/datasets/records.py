"""Analysis-ready record types.

A :class:`UserRecord` is what the paper's cleaned dataset holds for one
vantage point: measured connection characteristics (from NDT), usage
summaries (from byte counters), the market covariates of the user's
country, and the per-period history needed for the upgrade analyses.
Ground-truth fields (latent need, budget) are deliberately absent — the
analyses must work from measurements alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.upgrades import NetworkId, ServicePeriod
from ..exceptions import DatasetError

__all__ = ["PeriodObservation", "UserRecord", "hourly_profile", "period_year"]

#: Day 0 of every observation window is January 1st of this year.
EPOCH_YEAR = 2011
_DAYS_PER_YEAR = 365.0


def period_year(period: ServicePeriod) -> int:
    """Calendar year a service period belongs to (by its start day)."""
    return EPOCH_YEAR + int(period.start_day // _DAYS_PER_YEAR)


def hourly_profile(
    rates_mbps: Sequence[float] | np.ndarray,
    hours: Sequence[float] | np.ndarray,
    min_samples_per_hour: int = 1,
) -> tuple[float, ...] | None:
    """Mean rate per local hour-of-day over collected samples.

    Returns a 24-tuple (NaN for hours with fewer than
    ``min_samples_per_hour`` samples — a peak-hour-biased collector like
    Dasu genuinely has sparse overnight coverage), or ``None`` when fewer
    than half the hours are covered at all.

    One stable sort groups the samples by hour. Each hour's slice of the
    sorted rates holds the same samples in the same order as
    ``rates[buckets == hour]``, contiguous, so ``np.add.reduce(slice) /
    count`` is the very pairwise sum and division ``.mean()`` performs
    on the masked samples: the profile is bit-identical to 24 masked
    means. (``np.bincount(weights=...)`` would reassociate the sums.)
    """
    rates = np.asarray(rates_mbps, dtype=float)
    hrs = np.asarray(hours, dtype=float)
    if rates.shape != hrs.shape:
        raise DatasetError("rates and hours must align")
    if rates.size == 0:
        return None
    buckets = np.floor(hrs).astype(int) % 24
    order = np.argsort(buckets, kind="stable")
    by_hour = rates[order]
    counts = np.bincount(buckets, minlength=24).tolist()
    profile = np.full(24, np.nan)
    end = 0
    for hour, count in enumerate(counts):
        start, end = end, end + count
        if count >= min_samples_per_hour:
            profile[hour] = np.add.reduce(by_hour[start:end]) / count
    if int(np.sum(~np.isnan(profile))) < 12:
        return None
    return tuple(float(v) for v in profile)


@dataclass(frozen=True)
class PeriodObservation:
    """One service period plus the measurements taken during it."""

    period: ServicePeriod
    latency_ms: float
    loss_fraction: float
    capacity_up_mbps: float
    n_ndt_tests: int
    n_usage_samples: int
    #: Mean rate per local hour (24 values, NaN where coverage is thin),
    #: or None when the period's hour coverage was too sparse.
    hourly_mean_mbps: tuple[float, ...] | None = None
    #: Uplink demand summaries (all traffic), when the collector
    #: recorded the sent direction.
    mean_up_mbps: float | None = None
    peak_up_mbps: float | None = None

    def __post_init__(self) -> None:
        if (
            self.hourly_mean_mbps is not None
            and len(self.hourly_mean_mbps) != 24
        ):
            raise DatasetError("hourly profile must have 24 entries")
        if self.latency_ms <= 0:
            raise DatasetError("period latency must be positive")
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise DatasetError("period loss must be in [0, 1]")

    @property
    def year(self) -> int:
        return period_year(self.period)


@dataclass(frozen=True)
class UserRecord:
    """One vantage point's cleaned record.

    ``capacity_down_mbps``, ``latency_ms`` and ``loss_fraction`` describe
    the user's *current* (most recent) connection, which is what the
    cross-sectional analyses use; ``observations`` carries the full
    history for the longitudinal and upgrade analyses.
    """

    user_id: str
    source: str  # "dasu" or "fcc"
    country: str
    region: str
    development: str
    vantage: str  # "direct", "upnp", or "gateway"
    technology: str
    bt_user: bool
    observations: tuple[PeriodObservation, ...]
    price_of_access_usd: float | None
    upgrade_cost_usd_per_mbps: float | None
    gdp_per_capita_usd: float
    #: Monthly traffic limit of the user's current plan, if any (GB).
    plan_data_cap_gb: float | None = None
    web_latency_ms: float | None = None
    ndt_2014_latency_ms: float | None = None
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.source not in ("dasu", "fcc"):
            raise DatasetError(f"unknown source {self.source!r}")
        if not self.observations:
            raise DatasetError(f"{self.user_id}: record has no observations")
        days = [o.period.start_day for o in self.observations]
        if days != sorted(days):
            raise DatasetError(f"{self.user_id}: observations out of order")

    # -- current-connection accessors (most recent period) ---------------

    @property
    def current(self) -> PeriodObservation:
        return self.observations[-1]

    @property
    def capacity_down_mbps(self) -> float:
        return self.current.period.capacity_mbps

    @property
    def latency_ms(self) -> float:
        return self.current.latency_ms

    @property
    def loss_fraction(self) -> float:
        return self.current.loss_fraction

    @property
    def network(self) -> NetworkId:
        return self.current.period.network

    @property
    def mean_mbps(self) -> float:
        return self.current.period.mean_mbps

    @property
    def peak_mbps(self) -> float:
        return self.current.period.peak_mbps

    @property
    def mean_no_bt_mbps(self) -> float:
        return self.current.period.mean_no_bt_mbps

    @property
    def peak_no_bt_mbps(self) -> float:
        return self.current.period.peak_no_bt_mbps

    @property
    def mean_up_mbps(self) -> float | None:
        return self.current.mean_up_mbps

    @property
    def peak_up_mbps(self) -> float | None:
        return self.current.peak_up_mbps

    def demand(self, metric: str = "peak", include_bt: bool = False) -> float:
        """A demand statistic of the current period by name."""
        if metric == "peak":
            return self.peak_mbps if include_bt else self.peak_no_bt_mbps
        if metric == "mean":
            return self.mean_mbps if include_bt else self.mean_no_bt_mbps
        raise DatasetError(f"unknown demand metric {metric!r}")

    @property
    def peak_utilization(self) -> float:
        """95th-percentile link utilization, clipped to 1.

        Computed without BitTorrent-active intervals: BitTorrent
        saturates any link by design, so including it would flatten the
        cross-market utilization comparisons of Figs. 7-8.
        """
        return min(1.0, self.peak_no_bt_mbps / self.capacity_down_mbps)

    # -- history accessors ------------------------------------------------

    @property
    def periods(self) -> tuple[ServicePeriod, ...]:
        return tuple(o.period for o in self.observations)

    def observation_in_year(self, year: int) -> PeriodObservation | None:
        """The user's observation for a calendar year, if any."""
        for obs in self.observations:
            if obs.year == year:
                return obs
        return None

    @property
    def switched_service(self) -> bool:
        """Whether the user was seen on more than one network."""
        networks = {o.period.network for o in self.observations}
        return len(networks) > 1
