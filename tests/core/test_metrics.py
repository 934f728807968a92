"""Demand metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.exceptions import AnalysisError


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes()
    )


class TestDemandSummary:
    def test_mean_and_peak(self):
        rates = np.concatenate([np.zeros(95), np.full(5, 10.0)])
        summary = metrics.demand_summary(rates)
        assert summary.mean_mbps == pytest.approx(0.5)
        # With 95% zeros, the 95th percentile sits at the transition.
        assert 0.0 <= summary.peak_mbps <= 10.0

    def test_peak_is_95th_percentile(self):
        rates = np.arange(100.0)
        summary = metrics.demand_summary(rates)
        assert summary.peak_mbps == pytest.approx(np.percentile(rates, 95))

    def test_n_samples(self):
        assert metrics.demand_summary([1.0, 2.0]).n_samples == 2

    def test_constant_series(self):
        summary = metrics.demand_summary([2.0] * 10)
        assert summary.mean_mbps == summary.peak_mbps == 2.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            metrics.demand_summary([])

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            metrics.demand_summary([1.0, -0.1])


_SAMPLE = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, 1.0, 2.5, 1e-300, 1e300]),
    st.just(math.inf),
    st.just(math.nan),
)


class TestPeakMatchesNumpy:
    """The hand-rolled 95th percentile is ``np.percentile``, bit for bit.

    Pinned against numpy itself so an upgrade that changes numpy's
    interpolation shows up here, not as drifted build bytes.
    """

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_SAMPLE, min_size=1, max_size=60))
    @example(values=[3.0])
    @example(values=[1.0, 2.0])
    @example(values=[2.0, 1.0, 3.0])
    @example(values=[2.0, 2.0, 2.0])
    @example(values=[math.inf, 1.0])
    @example(values=[1.0, math.inf, math.inf])
    @example(values=[1.0, math.nan, 2.0])
    @example(values=[math.nan])
    def test_peak_equals_percentile(self, values):
        arr = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):
            expected = float(np.percentile(arr, 95))
            got = metrics.demand_summary(arr).peak_mbps
        assert _same_float(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=3000))
    def test_peak_equals_percentile_long_series(self, values):
        arr = np.array(values, dtype=float)
        assert _same_float(
            metrics.demand_summary(arr).peak_mbps, float(np.percentile(arr, 95))
        )

    def test_input_left_unsorted(self):
        arr = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        metrics.demand_summary(arr)
        assert arr.tolist() == [3.0, 1.0, 2.0, 5.0, 4.0]
