"""The 24-mask reference for :func:`repro.datasets.records.hourly_profile`.

:func:`hourly_profile_masks` is the previous implementation, kept
verbatim: one boolean mask and one ``.mean()`` per hour of day. The
sort-and-slice version in ``src/`` must return the same profile, bit
for bit; the property suite in ``test_records.py`` holds it to that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DatasetError


def hourly_profile_masks(
    rates_mbps: Sequence[float] | np.ndarray,
    hours: Sequence[float] | np.ndarray,
    min_samples_per_hour: int = 1,
) -> tuple[float, ...] | None:
    rates = np.asarray(rates_mbps, dtype=float)
    hrs = np.asarray(hours, dtype=float)
    if rates.shape != hrs.shape:
        raise DatasetError("rates and hours must align")
    if rates.size == 0:
        return None
    buckets = np.floor(hrs).astype(int) % 24
    profile = np.full(24, np.nan)
    for hour in range(24):
        mask = buckets == hour
        if int(mask.sum()) >= min_samples_per_hour:
            profile[hour] = float(rates[mask].mean())
    if int(np.sum(~np.isnan(profile))) < 12:
        return None
    return tuple(float(v) for v in profile)
