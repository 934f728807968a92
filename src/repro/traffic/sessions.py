"""On/off session processes over a sampling grid.

Household activity is modeled as an alternating renewal process:
exponentially distributed "on" periods (someone is using the network)
separated by exponentially distributed "off" gaps. Long-ish on-periods
are what make hourly byte counters (the FCC gateways) see nearly the
same peaks as 30-second counters (Dasu) — sustained sessions dominate
the 95th percentile in both views.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DatasetError

__all__ = ["draw_on_intervals", "intervals_to_mask"]


def draw_on_intervals(
    duration_s: float,
    mean_on_s: float,
    mean_off_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the ON intervals of an alternating renewal process.

    Returns an array of shape ``(k, 2)`` with ``[start, end)`` times in
    seconds, clipped to ``[0, duration_s)``. The process starts in a
    random phase so that series of different users are not aligned.
    """
    if duration_s <= 0:
        raise DatasetError(f"duration must be positive, got {duration_s}")
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise DatasetError("mean on/off durations must be positive")

    cycle = mean_on_s + mean_off_s
    n_cycles = int(duration_s / cycle * 3) + 10
    ons = rng.exponential(mean_on_s, n_cycles)
    offs = rng.exponential(mean_off_s, n_cycles)
    # Interleave off/on, starting with a (possibly zero-length) off gap.
    segments = np.empty(2 * n_cycles)
    segments[0::2] = offs
    segments[1::2] = ons
    # Random initial phase: discard a random prefix of the first gap.
    segments[0] *= rng.random()
    edges = np.concatenate([[0.0], np.cumsum(segments)])
    starts = edges[1:-1:2]
    ends = edges[2::2]
    keep = starts < duration_s
    starts = starts[keep]
    ends = np.minimum(ends[keep], duration_s)
    return np.column_stack([starts, ends])


def intervals_to_mask(
    intervals: np.ndarray,
    n_samples: int,
    interval_s: float,
) -> np.ndarray:
    """Rasterize ``[start, end)`` intervals onto a sampling grid.

    Sample ``i`` covers ``[i * interval_s, (i+1) * interval_s)`` and is
    marked ``True`` when its midpoint falls inside any interval.

    Every interval's ``[lo, hi)`` sample range comes from one
    ``searchsorted`` over all edges, and the ranges are painted with a
    difference array: +1 at each ``lo``, -1 at each ``hi``, and a sample
    is covered when the running sum is positive. Empty ranges
    (``hi <= lo``) are dropped first, exactly the ranges a slice
    assignment would leave untouched, so the mask equals the
    per-interval ``mask[lo:hi] = True`` loop for overlapping, empty and
    off-grid intervals alike.
    """
    if n_samples <= 0 or interval_s <= 0:
        raise DatasetError("grid must have positive size and step")
    if intervals.size == 0:
        return np.zeros(n_samples, dtype=bool)
    midpoints = (np.arange(n_samples) + 0.5) * interval_s
    lo, hi = np.searchsorted(midpoints, intervals, side="left").T
    painted = hi > lo
    edges = np.bincount(lo[painted], minlength=n_samples + 1) - np.bincount(
        hi[painted], minlength=n_samples + 1
    )
    return np.cumsum(edges[:n_samples]) > 0
