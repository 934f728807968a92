"""The Dasu end-host measurement client.

Dasu records network usage from byte counters — ``netstat`` on hosts
directly connected to their modem, UPnP WAN counters behind gateways —
at approximately 30-second intervals, *while the client is running*.
Because people run the client when they use the computer, collection is
biased toward peak hours; this is the sampling bias that makes Dasu's
average demand slightly higher than the FCC gateways' while peak demand
matches (Fig. 3 of the paper).

The client also knows when its own BitTorrent transfers are active, which
is what lets the analyses exclude BitTorrent-active intervals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.metrics import DemandSummary, demand_summary
from ..exceptions import MeasurementError
from ..traffic.diurnal import diurnal_weight
from ..traffic.generator import UsageSeries
from ..traffic.sessions import draw_on_intervals, intervals_to_mask
from ..units import UINT32_WRAP, bytes_to_megabits, mbps_to_bytes_per_sec
from .netstat import REBOOT_PROBABILITY_PER_READ, deltas_from_netstat
from .upnp import RESET_PROBABILITY_PER_READ, deltas_from_readings

__all__ = ["DasuClient", "DasuVantage", "SampledUsage"]

#: Mean duration the client stays online once started, in seconds.
CLIENT_ON_S = 2.5 * 3600.0
#: Mean gap between client sessions, in seconds.
CLIENT_OFF_S = 3.0 * 3600.0
#: Reads separated by more than this many sample slots are discarded
#: (the client was offline or the scheduler slipped badly).
MAX_GAP_SLOTS = 3


class DasuVantage(enum.Enum):
    """How the host sees the traffic it accounts."""

    DIRECT = "direct"  # host on the modem; netstat counters
    UPNP = "upnp"  # behind a UPnP gateway; WAN counters


@dataclass(frozen=True)
class SampledUsage:
    """The usage samples a client actually collected.

    ``rates_mbps`` are per-collected-interval download rates;
    ``bt_active`` flags samples overlapping the client's own BitTorrent
    activity; ``hours`` is the local hour of each sample.
    """

    rates_mbps: np.ndarray
    bt_active: np.ndarray
    hours: np.ndarray
    up_rates_mbps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (
            self.rates_mbps.shape == self.bt_active.shape == self.hours.shape
        ):
            raise MeasurementError("sample arrays must align")
        if (
            self.up_rates_mbps is not None
            and self.up_rates_mbps.shape != self.rates_mbps.shape
        ):
            raise MeasurementError("uplink samples must align")

    @property
    def n_samples(self) -> int:
        return int(self.rates_mbps.size)

    def summary(self, include_bt: bool = True) -> DemandSummary:
        """Mean/peak demand over the collected samples."""
        if include_bt:
            return demand_summary(self.rates_mbps)
        return demand_summary(self.rates_mbps[~self.bt_active])

    @property
    def has_no_bt_samples(self) -> bool:
        return bool(np.any(~self.bt_active))


class DasuClient:
    """Collects byte-counter samples from a household's usage series."""

    def __init__(
        self,
        vantage: DasuVantage,
        rng: np.random.Generator,
        read_miss_rate: float = 0.02,
    ) -> None:
        if not 0.0 <= read_miss_rate < 1.0:
            raise MeasurementError("read miss rate must be a fraction")
        self.vantage = vantage
        self._rng = rng
        self._read_miss_rate = read_miss_rate

    def _online_mask(self, series: UsageSeries) -> np.ndarray:
        """When the client was running: session process, peak-biased."""
        duration_s = series.n_samples * series.interval_s
        intervals = draw_on_intervals(
            duration_s, CLIENT_ON_S, CLIENT_OFF_S, self._rng
        )
        if intervals.size:
            start_hours = (
                series.start_hour + intervals[:, 0] / 3600.0
            ) % 24.0
            # People run the client when they are at the computer, so
            # overnight client sessions are rare: collection is strongly
            # evening-weighted (the source of the Fig. 3 mean offset).
            keep = self._rng.random(len(intervals)) < np.minimum(
                1.0, 0.08 + 1.15 * diurnal_weight(start_hours)
            )
            intervals = intervals[keep]
        return intervals_to_mask(
            intervals, series.n_samples, series.interval_s
        )

    def _counter_readings(self, byte_deltas: np.ndarray) -> np.ndarray:
        """Simulated cumulative counter readings after each interval.

        A reset at read ``r`` restarts the counter from zero, so every
        reading ``j`` from the first reset on is the traffic since the
        latest reset at or before it, ``cumulative[j] - cumulative[r]``;
        readings before the first reset keep their start value. That is
        integer arithmetic, so it is exact whatever the number of resets.
        """
        cumulative = np.cumsum(byte_deltas)
        n = cumulative.size
        if self.vantage is DasuVantage.DIRECT:
            readings = cumulative
            reset = self._rng.random(n) < REBOOT_PROBABILITY_PER_READ
        else:
            start = int(self._rng.integers(0, UINT32_WRAP))
            readings = start + cumulative
            reset = self._rng.random(n) < RESET_PROBABILITY_PER_READ
        resets = np.flatnonzero(reset)
        if resets.size:
            # Each reset's cumulative count holds until the next reset.
            held_until = np.append(resets[1:], n)
            at_latest_reset = np.repeat(
                cumulative[resets], held_until - resets
            )
            readings[resets[0]:] = cumulative[resets[0]:] - at_latest_reset
        if self.vantage is DasuVantage.DIRECT:
            return readings
        return readings % UINT32_WRAP

    def collect(self, series: UsageSeries) -> SampledUsage:
        """Sample the household's series the way the real client would.

        The ground-truth rate series is converted to cumulative byte
        counters, read on the client's 30-second schedule (with missed
        reads) only while the client is online, pushed through the
        counter-artifact correction, and converted back to rates.
        """
        interval_s = series.interval_s
        byte_deltas = np.rint(
            mbps_to_bytes_per_sec(series.rates_mbps) * interval_s
        ).astype(np.int64)

        online = self._online_mask(series)
        scheduled = self._rng.random(series.n_samples) >= self._read_miss_rate
        read_slots = np.nonzero(online & scheduled)[0]
        if read_slots.size < 2:
            return SampledUsage(
                rates_mbps=np.empty(0),
                bt_active=np.empty(0, dtype=bool),
                hours=np.empty(0),
                up_rates_mbps=np.empty(0),
            )

        decode = (
            deltas_from_readings
            if self.vantage is DasuVantage.UPNP
            else deltas_from_netstat
        )
        deltas = decode(self._counter_readings(byte_deltas)[read_slots])

        # The client drops intervals it can see are unusable at read
        # time: a reset it detected itself (the decoder's -1) or a read
        # gap too wide to attribute. Resets the client *misses* — the
        # fault injector's sentinels — are a different population, owned
        # downstream by repro.datasets.sanitize.strip_sentinels.
        gaps = np.diff(read_slots)
        valid = (deltas >= 0) & (gaps <= MAX_GAP_SLOTS)

        up_rates = None
        if series.up_rates_mbps is not None:
            up_byte_deltas = np.rint(
                mbps_to_bytes_per_sec(series.up_rates_mbps) * interval_s
            ).astype(np.int64)
            up_deltas = decode(
                self._counter_readings(up_byte_deltas)[read_slots]
            )
            valid = valid & (up_deltas >= 0)
            up_rates = bytes_to_megabits(up_deltas.astype(float)) / (
                gaps.astype(float) * interval_s
            )

        end_slots = read_slots[1:][valid]
        rates = bytes_to_megabits(deltas[valid].astype(float)) / (
            gaps[valid].astype(float) * interval_s
        )
        if up_rates is not None:
            up_rates = up_rates[valid]

        return SampledUsage(
            rates_mbps=rates,
            bt_active=series.bt_active[end_slots],
            hours=series.hours(end_slots),
            up_rates_mbps=up_rates,
        )
