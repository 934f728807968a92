"""Diurnal activity pattern of residential broadband traffic.

Residential demand shows a pronounced evening peak (roughly 20:00-22:00
local time), a smaller midday shoulder and a deep overnight trough. The
weight returned here multiplies a household's propensity to start an
active session at a given local hour; it peaks at 1.0 and bottoms out at
:data:`NIGHT_FLOOR`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EVENING_PEAK_HOUR", "NIGHT_FLOOR", "diurnal_weight"]

#: Local hour of the evening activity peak.
EVENING_PEAK_HOUR = 20.5
#: Local hour of the midday shoulder.
_MIDDAY_HOUR = 13.0
#: Minimum relative activity, reached in the dead of night.
NIGHT_FLOOR = 0.18

_EVENING_WIDTH_H = 3.0
_MIDDAY_WIDTH_H = 3.5
_MIDDAY_HEIGHT = 0.45


def _circular_gap_hours(hour: np.ndarray, center: float) -> np.ndarray:
    """Shortest distance on the 24-hour circle, in hours."""
    gap = np.abs(np.asarray(hour, dtype=float) % 24.0 - center)
    return np.minimum(gap, 24.0 - gap)


def diurnal_weight(hour: float | np.ndarray) -> np.ndarray | float:
    """Relative activity level at a local hour (scalar or array).

    A floor plus two Gaussian bumps (evening peak and midday shoulder),
    normalized so the evening peak is exactly 1.0.
    """
    h = np.asarray(hour, dtype=float)
    evening = np.exp(-0.5 * (_circular_gap_hours(h, EVENING_PEAK_HOUR) / _EVENING_WIDTH_H) ** 2)
    midday = _MIDDAY_HEIGHT * np.exp(
        -0.5 * (_circular_gap_hours(h, _MIDDAY_HOUR) / _MIDDAY_WIDTH_H) ** 2
    )
    raw = NIGHT_FLOOR + (1.0 - NIGHT_FLOOR) * np.maximum(evening, midday)
    if np.isscalar(hour):
        return float(raw)
    return raw

