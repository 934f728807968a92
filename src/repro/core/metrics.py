"""Demand metrics: mean and peak usage.

The paper describes user demand with two statistics over the time series of
downlink throughput samples (one sample per ~30 s for Dasu, hourly for the
FCC gateways): the **mean** and the **peak**, defined as the 95th percentile
(Sec. 3.1).
"""

from __future__ import annotations

import math
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

    The peak is ``np.percentile(rates, 95)`` to the last bit; it is
    computed by :func:`_peak`, which replays numpy's linear method
    without its per-call dispatch.
    """
    arr = np.asarray(rates_mbps, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot summarize an empty usage series")
    if np.any(arr < 0):
        raise AnalysisError("negative throughput samples indicate a counter bug")
    return DemandSummary(
        mean_mbps=float(arr.mean()),
        peak_mbps=_peak(arr),
        n_samples=int(arr.size),
    )


def _peak(arr: np.ndarray) -> float:
    """``np.percentile(arr, 95)``, without its per-call dispatch.

    The builder takes this a few times per observed period, and numpy's
    generic quantile machinery dominated its cost. This is numpy's own
    "linear" method for one quantile of a 1-D array, step for step: the
    same virtual index ``(n - 1) * 0.95``, the same two order statistics
    from a partition, the same two-sided lerp (``b - (b - a) * (1 - t)``
    from ``t >= 0.5`` on) and the same NaN rule, so the result is
    bit-identical; a property test holds it to ``np.percentile``. A
    one-sample series, where numpy clamps the index, goes to numpy.
    """
    n = arr.size
    if n == 1:
        return percentile(arr, PEAK_PERCENTILE)
    virtual = (n - 1) * (PEAK_PERCENTILE / 100.0)
    lo = math.floor(virtual)
    part = np.partition(arr.reshape(-1), (lo, lo + 1, n - 1))
    if math.isnan(part[n - 1]):
        return float(part[n - 1])
    a, b = float(part[lo]), float(part[lo + 1])
    t = virtual - lo
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t
