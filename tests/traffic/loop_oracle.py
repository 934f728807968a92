"""Per-session loop references for the traffic layer.

:func:`generate_usage_series_loop` and :func:`intervals_to_mask_loop`
are the previous implementations of
:func:`repro.traffic.generator.generate_usage_series` and
:func:`repro.traffic.sessions.intervals_to_mask`, kept verbatim: one
``searchsorted`` pair and, for the generator, two ``rng.normal`` calls
per session. The batched versions in ``src/`` must return the same
arrays, bit for bit, and leave the generator at the same state; the
property suites in ``test_generator.py`` and ``test_sessions.py`` hold
them to that.
"""

from __future__ import annotations

import numpy as np

from repro.behavior.demand import DemandProcess
from repro.exceptions import DatasetError
from repro.traffic.bittorrent import draw_bt_sessions
from repro.traffic.diurnal import diurnal_weight
from repro.traffic.generator import (
    IDLE_SHARE,
    MEAN_OFF_S,
    MEAN_ON_S,
    UsageSeries,
)
from repro.traffic.sessions import draw_on_intervals
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


def intervals_to_mask_loop(
    intervals: np.ndarray,
    n_samples: int,
    interval_s: float,
) -> np.ndarray:
    if n_samples <= 0 or interval_s <= 0:
        raise DatasetError("grid must have positive size and step")
    mask = np.zeros(n_samples, dtype=bool)
    if intervals.size == 0:
        return mask
    midpoints = (np.arange(n_samples) + 0.5) * interval_s
    for start, end in intervals:
        lo = int(np.searchsorted(midpoints, start, side="left"))
        hi = int(np.searchsorted(midpoints, end, side="left"))
        mask[lo:hi] = True
    return mask


def generate_usage_series_loop(
    demand: DemandProcess,
    duration_days: float,
    interval_s: float,
    rng: np.random.Generator,
    start_hour: float = 0.0,
) -> UsageSeries:
    if duration_days <= 0 or interval_s <= 0:
        raise DatasetError("duration and interval must be positive")
    duration_s = duration_days * SECONDS_PER_DAY
    n = int(round(duration_s / interval_s))
    if n < 10:
        raise DatasetError("window too short for a meaningful series")

    rates = np.full(
        n, demand.offered_peak_mbps * IDLE_SHARE, dtype=float
    )
    # Idle traffic flickers rather than hums.
    rates *= rng.uniform(0.0, 2.0, n)

    hours_at = lambda t_s: (start_hour + t_s / SECONDS_PER_HOUR) % 24.0

    intervals = draw_on_intervals(duration_s, MEAN_ON_S, MEAN_OFF_S, rng)
    if intervals.size:
        start_hours = hours_at(intervals[:, 0])
        keep_prob = np.minimum(
            1.0, 1.6 * demand.activity_level * diurnal_weight(start_hours)
        )
        kept = rng.random(len(intervals)) < keep_prob
        intervals = intervals[kept]

    midpoints = (np.arange(n) + 0.5) * interval_s
    typical_rate = demand.offered_peak_mbps * demand.rate_median_share
    for t_start, t_end in intervals:
        lo = int(np.searchsorted(midpoints, t_start, side="left"))
        hi = int(np.searchsorted(midpoints, t_end, side="left"))
        if hi <= lo:
            continue
        session_rate = typical_rate * float(
            np.exp(rng.normal(0.0, demand.burstiness_sigma))
        )
        # Within a session the rate wobbles around the session's level.
        wobble = np.exp(rng.normal(0.0, 0.25, hi - lo))
        rates[lo:hi] = np.maximum(rates[lo:hi], session_rate * wobble)

    # Uplink: requests/ACKs/uploads mirror the foreground downlink at the
    # household's upload share, with its own wobble.
    up_rates = rates * demand.upload_share * np.exp(
        rng.normal(0.0, 0.3, n)
    )

    bt_active = np.zeros(n, dtype=bool)
    if demand.bt_user:
        schedule = draw_bt_sessions(duration_s, rng)
        for (t_start, t_end), share in zip(
            schedule.intervals, schedule.rate_shares
        ):
            lo = int(np.searchsorted(midpoints, t_start, side="left"))
            hi = int(np.searchsorted(midpoints, t_end, side="left"))
            if hi <= lo:
                continue
            bt_rate = share * demand.ceiling_mbps
            wobble = np.exp(rng.normal(0.0, 0.1, hi - lo))
            rates[lo:hi] = np.maximum(rates[lo:hi], bt_rate * wobble)
            # Seeding saturates the (much thinner) uplink.
            up_wobble = np.exp(rng.normal(0.0, 0.1, hi - lo))
            up_rates[lo:hi] = np.maximum(
                up_rates[lo:hi],
                0.8 * demand.up_ceiling_mbps * up_wobble,
            )
            bt_active[lo:hi] = True

    np.minimum(rates, demand.ceiling_mbps, out=rates)
    np.minimum(up_rates, demand.up_ceiling_mbps, out=up_rates)
    return UsageSeries(
        interval_s=interval_s,
        start_hour=start_hour,
        rates_mbps=rates,
        bt_active=bt_active,
        up_rates_mbps=up_rates,
    )
