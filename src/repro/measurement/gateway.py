"""FCC / SamKnows residential gateway measurements.

The "Measuring Broadband America" gateways record the number of bytes
sent and received over the WAN link every hour, around the clock — no
peak-hour bias, no BitTorrent visibility (the gateway sees bytes, not
applications). They also run scheduled performance tests; the builder
reuses :class:`~repro.measurement.ndt.NdtClient` for those.
"""

from __future__ import annotations

import numpy as np

from ..core.metrics import DemandSummary, demand_summary
from ..exceptions import MeasurementError
from ..traffic.generator import UsageSeries
from ..units import SECONDS_PER_HOUR

__all__ = ["FccGateway"]


class FccGateway:
    """Aggregates a household series into hourly WAN byte counts."""

    def __init__(self, rng: np.random.Generator, loss_rate: float = 0.01) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise MeasurementError("record loss rate must be a fraction")
        self._rng = rng
        self._record_loss_rate = loss_rate

    def collect(
        self, series: UsageSeries
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(hourly rates, local hour of each record, uplink rates or ``None``).

        One call per observed period. A small fraction of hourly records
        is lost in upload/processing (as in the public FCC data
        releases); the loss mask is drawn once and applies to both
        directions, so the uplink records stay aligned with the
        downlink ones.
        """
        samples_per_hour = int(round(SECONDS_PER_HOUR / series.interval_s))
        if samples_per_hour < 1:
            raise MeasurementError(
                "series must be sampled at sub-hourly resolution"
            )
        n_hours = series.n_samples // samples_per_hour
        if n_hours < 1:
            raise MeasurementError("series shorter than one hour")

        def hourly_means(rates: np.ndarray) -> np.ndarray:
            trimmed = rates[: n_hours * samples_per_hour]
            return trimmed.reshape(n_hours, samples_per_hour).mean(axis=1)

        hours = (series.start_hour + 0.5 + np.arange(n_hours)) % 24.0
        kept = self._rng.random(n_hours) >= self._record_loss_rate
        if not np.any(kept):
            kept[0] = True
        up_hourly = None
        if series.up_rates_mbps is not None:
            up_hourly = hourly_means(series.up_rates_mbps)[kept]
        return hourly_means(series.rates_mbps)[kept], hours[kept], up_hourly

    def hourly_rates(self, series: UsageSeries) -> np.ndarray:
        """Average WAN download rate per hour, in Mbps."""
        return self.collect(series)[0]

    def summary(self, series: UsageSeries) -> DemandSummary:
        """Mean/peak demand as estimated from the hourly records."""
        return demand_summary(self.hourly_rates(series))
