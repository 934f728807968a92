"""On/off session processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DatasetError
from repro.traffic.sessions import draw_on_intervals, intervals_to_mask

from .loop_oracle import intervals_to_mask_loop


class TestDrawOnIntervals:
    def test_intervals_within_bounds(self):
        rng = np.random.default_rng(0)
        intervals = draw_on_intervals(86400.0, 1800.0, 2700.0, rng)
        assert np.all(intervals[:, 0] >= 0.0)
        assert np.all(intervals[:, 1] <= 86400.0)

    def test_intervals_ordered_and_disjoint(self):
        rng = np.random.default_rng(1)
        intervals = draw_on_intervals(86400.0, 1800.0, 2700.0, rng)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
            assert s1 < e1

    def test_on_fraction_matches_duty_cycle(self):
        rng = np.random.default_rng(2)
        total_on = 0.0
        duration = 86400.0 * 20
        intervals = draw_on_intervals(duration, 3000.0, 4200.0, rng)
        total_on = float(np.sum(intervals[:, 1] - intervals[:, 0]))
        expected = 3000.0 / (3000.0 + 4200.0)
        assert total_on / duration == pytest.approx(expected, rel=0.2)

    def test_deterministic(self):
        a = draw_on_intervals(86400.0, 1800.0, 2700.0, np.random.default_rng(3))
        b = draw_on_intervals(86400.0, 1800.0, 2700.0, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_invalid_duration(self):
        with pytest.raises(DatasetError):
            draw_on_intervals(0.0, 100.0, 100.0, np.random.default_rng(0))

    def test_invalid_means(self):
        with pytest.raises(DatasetError):
            draw_on_intervals(100.0, 0.0, 100.0, np.random.default_rng(0))


class TestIntervalsToMask:
    def test_basic_rasterization(self):
        intervals = np.array([[10.0, 40.0]])
        mask = intervals_to_mask(intervals, n_samples=10, interval_s=10.0)
        # Midpoints 5,15,25,35,...: samples 1-3 covered.
        assert list(np.nonzero(mask)[0]) == [1, 2, 3]

    def test_empty_intervals(self):
        mask = intervals_to_mask(np.empty((0, 2)), 5, 10.0)
        assert not mask.any()

    def test_full_coverage(self):
        intervals = np.array([[0.0, 100.0]])
        mask = intervals_to_mask(intervals, 10, 10.0)
        assert mask.all()

    def test_interval_past_grid_clipped(self):
        intervals = np.array([[50.0, 500.0]])
        mask = intervals_to_mask(intervals, 10, 10.0)
        assert mask[9]
        assert not mask[0]

    def test_invalid_grid(self):
        with pytest.raises(DatasetError):
            intervals_to_mask(np.empty((0, 2)), 0, 10.0)


_EDGE = st.floats(-50.0, 150.0)


class TestIntervalsToMaskOracle:
    """The difference-array raster equals the per-interval loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_EDGE, _EDGE), max_size=12),
        zero_width=st.lists(_EDGE, max_size=3),
        n_samples=st.integers(1, 12),
    )
    def test_matches_loop(self, pairs, zero_width, n_samples):
        # Overlapping, reversed (empty), zero-width and off-grid intervals.
        rows = list(pairs) + [(t, t) for t in zero_width]
        intervals = np.array(rows, dtype=float).reshape(-1, 2)
        expected = intervals_to_mask_loop(intervals, n_samples, 10.0)
        got = intervals_to_mask(intervals, n_samples, 10.0)
        assert got.dtype == expected.dtype == bool
        assert got.tobytes() == expected.tobytes()
