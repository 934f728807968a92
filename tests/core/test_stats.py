"""Statistical primitives, cross-checked against scipy."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from repro.core import stats
from repro.exceptions import AnalysisError


class TestBinomialSf:
    @pytest.mark.parametrize(
        "k,n,p",
        [(5, 10, 0.5), (60, 100, 0.5), (1, 3, 0.25), (400, 1000, 0.4),
         (999, 1000, 0.5), (0, 10, 0.5), (10, 10, 0.5)],
    )
    def test_matches_scipy_sf(self, k, n, p):
        expected = scipy.stats.binom.sf(k - 1, n, p)
        assert stats.binomial_sf(k, n, p) == pytest.approx(expected, rel=1e-10)

    def test_k_zero_is_one(self):
        assert stats.binomial_sf(0, 10, 0.3) == 1.0

    def test_k_above_n_is_zero(self):
        assert stats.binomial_sf(11, 10, 0.3) == 0.0

    def test_large_n_stays_in_unit_interval(self):
        value = stats.binomial_sf(100_100, 200_000, 0.5)
        assert 0.0 <= value <= 1.0

    def test_negative_n_rejected(self):
        with pytest.raises(AnalysisError):
            stats.binomial_sf(1, -1, 0.5)


class TestRegularizedIncompleteBeta:
    @pytest.mark.parametrize(
        "a,b,x",
        [(1.0, 1.0, 0.3), (2.5, 3.5, 0.7), (50.0, 2.0, 0.9),
         (500.0, 500.0, 0.5), (10.0, 90.0, 0.05)],
    )
    def test_matches_scipy_betainc(self, a, b, x):
        expected = scipy.special.betainc(a, b, x)
        assert stats.regularized_incomplete_beta(a, b, x) == pytest.approx(
            expected, rel=1e-12
        )

    def test_boundaries(self):
        assert stats.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert stats.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(AnalysisError):
            stats.regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(AnalysisError):
            stats.regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestBinomialSfLargeN:
    """Continued-fraction tail vs scipy.stats.binomtest, deep tail included.

    The log-space incomplete-beta evaluation is O(1) in n, so exactness
    must hold where the old O(n) summation was slowest: n of 100k+.
    """

    @pytest.mark.parametrize(
        "k,n",
        [
            # n = 10: every tail depth is reachable directly.
            (6, 10), (9, 10), (10, 10),
            # n = 1 000: moderate and deep tail (p ~ 1e-3 ... 1e-89).
            (530, 1_000), (600, 1_000), (650, 1_000),
            # n = 100 000: the target scale; k = 51 000 is p ~ 1e-10,
            # k = 52 500 is p ~ 1e-56.
            (50_100, 100_000), (51_000, 100_000), (52_500, 100_000),
        ],
    )
    def test_matches_scipy_binomtest(self, k, n):
        expected = scipy.stats.binomtest(k, n, 0.5, alternative="greater")
        assert stats.binomial_sf(k, n, 0.5) == pytest.approx(
            expected.pvalue, rel=1e-8
        )

    def test_underflowed_deep_tail_is_zero(self):
        # P[X >= 60 000] for Bin(100 000, 0.5) is ~1e-876: below the
        # smallest double, exactly like scipy reports it.
        assert stats.binomial_sf(60_000, 100_000, 0.5) == 0.0
        assert scipy.stats.binom.sf(59_999, 100_000, 0.5) == 0.0

    def test_biased_null_probability(self):
        expected = scipy.stats.binomtest(400, 1_000, 0.3, alternative="greater")
        assert stats.binomial_sf(400, 1_000, 0.3) == pytest.approx(
            expected.pvalue, rel=1e-10
        )

    def test_degenerate_p(self):
        assert stats.binomial_sf(1, 100_000, 0.0) == 0.0
        assert stats.binomial_sf(100_000, 100_000, 1.0) == 1.0

    def test_invalid_p_rejected(self):
        with pytest.raises(AnalysisError):
            stats.binomial_sf(5, 10, 1.5)


class TestBinomialTestGreater:
    def test_matches_scipy_binomtest(self):
        result = stats.binomial_test_greater(115, 171, 0.5)
        expected = scipy.stats.binomtest(115, 171, 0.5, alternative="greater")
        assert result.p_value == pytest.approx(expected.pvalue, rel=1e-10)

    def test_paper_table1_scale(self):
        # Roughly the paper's Table 1: 70.3% of ~520 pairs gives a
        # p-value around 1e-36.
        result = stats.binomial_test_greater(366, 520, 0.5)
        assert result.p_value < 1e-20

    def test_fraction(self):
        result = stats.binomial_test_greater(60, 100)
        assert result.fraction == pytest.approx(0.6)

    def test_zero_trials_is_inconclusive(self):
        result = stats.binomial_test_greater(0, 0)
        assert result.p_value == 1.0
        assert math.isnan(result.fraction)

    def test_chance_level_not_significant(self):
        result = stats.binomial_test_greater(50, 100)
        assert not result.significant()

    def test_strong_deviation_significant(self):
        result = stats.binomial_test_greater(70, 100)
        assert result.significant()

    def test_invalid_counts_rejected(self):
        with pytest.raises(AnalysisError):
            stats.binomial_test_greater(11, 10)
        with pytest.raises(AnalysisError):
            stats.binomial_test_greater(-1, 10)


class TestConfidenceInterval:
    def test_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = stats.mean_confidence_interval(values)
        sem = np.std(values, ddof=1) / math.sqrt(5)
        assert ci.center == pytest.approx(3.0)
        assert ci.half_width == pytest.approx(stats.Z_95 * sem)

    def test_contains_center(self):
        ci = stats.mean_confidence_interval([1.0, 2.0, 3.0])
        assert ci.contains(ci.center)

    def test_single_value_degenerate(self):
        ci = stats.mean_confidence_interval([2.5])
        assert ci.low == ci.high == ci.center == 2.5

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            stats.mean_confidence_interval([])

    def test_level_90(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        sem = np.std(values, ddof=1) / math.sqrt(5)
        ci = stats.mean_confidence_interval(values, level=0.90)
        assert ci.half_width == pytest.approx(
            1.6448536269514722 * sem, rel=1e-12
        )
        assert ci.level == 0.90

    def test_level_99(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        sem = np.std(values, ddof=1) / math.sqrt(5)
        ci = stats.mean_confidence_interval(values, level=0.99)
        assert ci.half_width == pytest.approx(
            2.5758293035489004 * sem, rel=1e-12
        )

    def test_width_grows_with_level(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        widths = [
            stats.mean_confidence_interval(values, level=lvl).half_width
            for lvl in (0.80, 0.90, 0.95, 0.99)
        ]
        assert widths == sorted(widths)

    def test_invalid_level_rejected(self):
        for level in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(AnalysisError):
                stats.mean_confidence_interval([1.0, 2.0], level=level)

    def test_wilson_supports_general_levels(self):
        narrow = stats.wilson_interval(30, 50, level=0.90)
        wide = stats.wilson_interval(30, 50, level=0.99)
        assert narrow.half_width < wide.half_width


class TestNormalQuantile:
    """The two-sided normal quantile behind every confidence level."""

    def test_known_quantiles(self):
        for level in (0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999):
            expected = scipy.stats.norm.ppf(0.5 + level / 2.0)
            assert stats._z_for_level(level) == pytest.approx(
                expected, rel=1e-13
            )

    def test_monotone(self):
        grid = [0.01, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999]
        values = [stats._z_for_level(level) for level in grid]
        assert values == sorted(values)

    def test_endpoints_rejected(self):
        for level in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(AnalysisError):
                stats._z_for_level(level)

    def test_95_level_uses_exact_constant(self):
        # Golden-report byte-stability: the default level must keep
        # producing the historical Z_95 constant bit for bit.
        ci = stats.mean_confidence_interval([0.0, 1.0], level=0.95)
        sem = np.std([0.0, 1.0], ddof=1) / math.sqrt(2)
        assert ci.half_width == stats.Z_95 * sem


class TestPearson:
    def test_perfect_positive(self):
        assert stats.pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert stats.pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = x * 0.5 + rng.normal(size=50)
        expected = scipy.stats.pearsonr(x, y).statistic
        assert stats.pearson_r(x, y) == pytest.approx(expected)

    def test_constant_series_is_nan(self):
        assert math.isnan(stats.pearson_r([1, 1, 1], [1, 2, 3]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            stats.pearson_r([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            stats.pearson_r([1], [2])


class TestPercentileAndEcdf:
    def test_median(self):
        assert stats.percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_p95_definition_matches_numpy(self):
        values = np.arange(100.0)
        assert stats.percentile(values, 95) == pytest.approx(
            np.percentile(values, 95)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(AnalysisError):
            stats.percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            stats.percentile([], 50)

    def test_ecdf_reaches_one(self):
        xs, ps = stats.ecdf([3.0, 1.0, 2.0, 2.0])
        assert ps[-1] == pytest.approx(1.0)

    def test_ecdf_sorted_support(self):
        xs, ps = stats.ecdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]

    def test_ecdf_handles_duplicates(self):
        xs, ps = stats.ecdf([1.0, 1.0, 2.0, 2.0])
        assert list(xs) == [1.0, 2.0]
        assert list(ps) == [0.5, 1.0]

    def test_ecdf_empty_rejected(self):
        with pytest.raises(AnalysisError):
            stats.ecdf([])


class TestWilsonInterval:
    def test_matches_known_value(self):
        # Wilson interval for 70/100 at 95%: roughly [0.604, 0.782].
        ci = stats.wilson_interval(70, 100)
        assert ci.low == pytest.approx(0.604, abs=0.005)
        assert ci.high == pytest.approx(0.782, abs=0.005)

    def test_center_is_observed_fraction(self):
        ci = stats.wilson_interval(60, 100)
        assert ci.center == pytest.approx(0.6)

    def test_behaves_at_edges(self):
        zero = stats.wilson_interval(0, 20)
        full = stats.wilson_interval(20, 20)
        assert zero.low == 0.0 and zero.high > 0.0
        assert full.high == 1.0 and full.low < 1.0

    def test_narrows_with_n(self):
        small = stats.wilson_interval(6, 10)
        large = stats.wilson_interval(600, 1000)
        assert (large.high - large.low) < (small.high - small.low)

    def test_invalid_counts_rejected(self):
        with pytest.raises(AnalysisError):
            stats.wilson_interval(5, 0)
        with pytest.raises(AnalysisError):
            stats.wilson_interval(11, 10)
