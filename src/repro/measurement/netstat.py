"""Host byte counters, as read via ``netstat``.

Users directly connected to their modem are measured through the host's
own interface counters — 64-bit, monotone, no wrap in practice. The only
artifact worth modeling is that counters restart when the host reboots.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import MeasurementError

__all__ = ["REBOOT_PROBABILITY_PER_READ", "deltas_from_netstat"]

#: Chance per read that the host has rebooted and its interface
#: counters restarted from zero.
REBOOT_PROBABILITY_PER_READ = 0.0002


def deltas_from_netstat(readings: np.ndarray) -> np.ndarray:
    """Per-interval byte counts from 64-bit counter readings.

    Any decrease is a host reboot; the interval is reported as ``-1``.
    As with UPnP resets, dropping the sentinel is owned by the
    sanitization stage (:mod:`repro.datasets.sanitize`), not by
    measurement code.
    """
    raw = np.asarray(readings, dtype=np.int64)
    if raw.ndim != 1 or raw.size < 2:
        raise MeasurementError("need at least two readings to form deltas")
    if np.any(raw < 0):
        raise MeasurementError("counter readings cannot be negative")
    diffs = np.diff(raw)
    out = diffs.copy()
    out[diffs < 0] = -1
    return out
