"""Demand metrics."""

import numpy as np
import pytest

from repro.core import metrics
from repro.exceptions import AnalysisError


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
