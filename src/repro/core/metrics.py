"""Demand metrics: mean and peak usage.

The paper describes user demand with two statistics over the time series of
downlink throughput samples (one sample per ~30 s for Dasu, hourly for the
FCC gateways): the **mean** and the **peak**, defined as the 95th percentile
(Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import AnalysisError
from .stats import percentile

__all__ = ["PEAK_PERCENTILE", "DemandSummary", "demand_summary"]

#: The percentile the paper uses for "peak" demand.
PEAK_PERCENTILE = 95.0


@dataclass(frozen=True)
class DemandSummary:
    """Mean/peak demand (Mbps) summarized from a usage time series."""

    mean_mbps: float
    peak_mbps: float
    n_samples: int


def demand_summary(rates_mbps: Sequence[float] | np.ndarray) -> DemandSummary:
    """Summarize a series of throughput samples into mean/peak demand.

    ``rates_mbps`` is the per-interval downlink (or uplink) rate series.
    Raises :class:`~repro.exceptions.AnalysisError` on an empty series: a
    user with no samples has no demand estimate and must be excluded
    upstream, not silently zeroed.
    """
    arr = np.asarray(rates_mbps, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot summarize an empty usage series")
    if np.any(arr < 0):
        raise AnalysisError("negative throughput samples indicate a counter bug")
    return DemandSummary(
        mean_mbps=float(arr.mean()),
        peak_mbps=percentile(arr, PEAK_PERCENTILE),
        n_samples=int(arr.size),
    )
