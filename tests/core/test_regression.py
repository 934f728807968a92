"""Per-market price~capacity regression."""

import numpy as np
import pytest
import scipy.stats

from repro.core import regression
from repro.exceptions import AnalysisError


class TestFitPriceCapacity:
    def test_exact_line(self):
        caps = [1.0, 10.0, 100.0]
        prices = [20.0 + 0.5 * c for c in caps]
        fit = regression.fit_price_capacity(caps, prices)
        assert fit.slope_usd_per_mbps == pytest.approx(0.5)
        assert fit.intercept_usd == pytest.approx(20.0)
        assert fit.correlation == pytest.approx(1.0)

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(3)
        caps = rng.uniform(1, 100, 30)
        prices = 15 + 0.7 * caps + rng.normal(0, 5, 30)
        fit = regression.fit_price_capacity(caps, prices)
        expected = scipy.stats.linregress(caps, prices)
        assert fit.slope_usd_per_mbps == pytest.approx(expected.slope)
        assert fit.intercept_usd == pytest.approx(expected.intercept)
        assert fit.correlation == pytest.approx(expected.rvalue)

    def test_predicted_price(self):
        fit = regression.fit_price_capacity([1.0, 2.0], [10.0, 12.0])
        assert fit.intercept_usd + fit.slope_usd_per_mbps * 3.0 == (
            pytest.approx(14.0)
        )

    def test_correlation_thresholds(self):
        assert regression.MarketRegression(1.0, 0.0, 0.5, 10).moderately_correlated
        assert not regression.MarketRegression(1.0, 0.0, 0.3, 10).moderately_correlated

    def test_threshold_boundaries_exclusive(self):
        # The paper's wording is "> 0.4".
        assert not regression.MarketRegression(1.0, 0.0, 0.4, 5).moderately_correlated

    def test_negative_correlation_not_moderate(self):
        fit = regression.MarketRegression(-1.0, 0.0, -0.9, 10)
        assert not fit.moderately_correlated

    def test_single_plan_rejected(self):
        with pytest.raises(AnalysisError):
            regression.fit_price_capacity([1.0], [20.0])

    def test_constant_capacity_rejected(self):
        with pytest.raises(AnalysisError):
            regression.fit_price_capacity([2.0, 2.0], [10.0, 20.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            regression.fit_price_capacity([1.0, 2.0], [10.0])

    def test_n_plans_recorded(self):
        fit = regression.fit_price_capacity([1, 2, 4], [10, 11, 13])
        assert fit.n_plans == 3
