"""UPnP gateway byte counters and their pathologies.

Dasu reads WAN byte counters from UPnP-enabled home gateways. Real UPnP
counters are notorious (DiCioccio et al., PAM'12 — the paper's citation
[11]): they are 32-bit and wrap every 4 GiB, and they reset to zero when
the gateway reboots. This module holds the reset rate the Dasu client
simulates and the correction used when turning readings into traffic
volumes.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import MeasurementError
from ..units import UINT32_WRAP

__all__ = ["RESET_PROBABILITY_PER_READ", "deltas_from_readings"]

#: Chance per read that the gateway has rebooted and the counter
#: restarted from zero (matches DiCioccio et al.'s reported reset rates).
RESET_PROBABILITY_PER_READ = 0.0005


def deltas_from_readings(readings: np.ndarray) -> np.ndarray:
    """Reconstruct per-interval byte counts from raw counter readings.

    Handles the two artifacts:

    * **wrap** — the counter decreased by *less* than half the 32-bit
      range is impossible; a decrease of *more* than half the range is a
      wrap, corrected by adding 2^32;
    * **reset** — a decrease of less than half the range means the
      gateway rebooted; the interval's true volume is unknowable and is
      reported as ``-1``. Dropping sentinel intervals is owned by the
      sanitization stage (:mod:`repro.datasets.sanitize`), never by
      measurement code: a ``-1`` must be *visible* in collected output
      so the cleaning pass can account for it.

    Returns an integer array one shorter than ``readings``.
    """
    raw = np.asarray(readings, dtype=np.int64)
    if raw.ndim != 1 or raw.size < 2:
        raise MeasurementError("need at least two readings to form deltas")
    if np.any(raw < 0) or np.any(raw >= UINT32_WRAP):
        raise MeasurementError("readings must be 32-bit counter values")
    diffs = np.diff(raw)
    wrapped = diffs < -(UINT32_WRAP // 2)
    reset = (diffs < 0) & ~wrapped
    out = diffs.copy()
    out[wrapped] += UINT32_WRAP
    out[reset] = -1
    return out
