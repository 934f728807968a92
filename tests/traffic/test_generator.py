"""The usage-series generator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.behavior.demand import DemandProcess
from repro.exceptions import DatasetError
from repro.traffic.generator import UsageSeries, generate_usage_series

from .loop_oracle import generate_usage_series_loop


def process(peak=2.0, ceiling=10.0, activity=0.55, bt=False):
    return DemandProcess(
        offered_peak_mbps=peak,
        ceiling_mbps=ceiling,
        activity_level=activity,
        burstiness_sigma=1.0,
        rate_median_share=0.35,
        bt_user=bt,
    )


def series(days=2.0, interval=30.0, seed=0, **kwargs):
    return generate_usage_series(
        process(**kwargs), days, interval, np.random.default_rng(seed)
    )


class TestGenerateUsageSeries:
    def test_sample_count(self):
        s = series(days=1.0)
        assert s.n_samples == 2880

    def test_rates_non_negative(self):
        s = series()
        assert np.all(s.rates_mbps >= 0)

    def test_rates_capped_by_ceiling(self):
        s = series(ceiling=3.0)
        assert np.all(s.rates_mbps <= 3.0)

    def test_demand_grows_with_offered_peak(self):
        low = [series(seed=i, peak=0.5).rates_mbps.mean() for i in range(10)]
        high = [series(seed=i, peak=5.0).rates_mbps.mean() for i in range(10)]
        assert np.mean(high) > 3 * np.mean(low)

    def test_p95_well_below_uncapped_ceiling(self):
        # Users rarely fully utilize their links (Sec. 3.1).
        peaks = [
            np.percentile(series(seed=i, peak=2.0, ceiling=50.0).rates_mbps, 95)
            for i in range(10)
        ]
        assert np.mean(peaks) < 5.0

    def test_low_capacity_link_saturates(self):
        # A 0.5 Mbps line under a 2 Mbps need runs hot at the 95th
        # percentile (the Botswana pattern of Fig. 8b).
        peaks = [
            np.percentile(series(seed=i, peak=2.0, ceiling=0.5).rates_mbps, 95)
            for i in range(10)
        ]
        assert np.mean(peaks) > 0.3

    def test_evening_usage_heavier_than_night(self):
        s = series(days=6.0, seed=3)
        hours = s.hours()
        evening = s.rates_mbps[(hours >= 19) & (hours <= 22)]
        night = s.rates_mbps[(hours >= 2) & (hours <= 5)]
        assert evening.mean() > 1.5 * night.mean()

    def test_non_bt_user_has_no_bt_samples(self):
        assert not series(bt=False).bt_active.any()

    def test_bt_user_saturates_during_sessions(self):
        for seed in range(10):
            s = series(days=4.0, seed=seed, bt=True, ceiling=8.0)
            if s.bt_active.any():
                bt_rates = s.rates_mbps[s.bt_active]
                assert np.median(bt_rates) > 0.5 * 8.0
                return
        pytest.fail("no BitTorrent activity in ten draws")

    def test_without_bt_excludes_flagged_samples(self):
        s = series(days=4.0, seed=1, bt=True)
        assert s.without_bt().size == (~s.bt_active).sum()

    def test_hours_wrap(self):
        s = series(days=2.0)
        hours = s.hours()
        assert np.all((hours >= 0) & (hours < 24))

    def test_duration_days(self):
        assert series(days=1.5).duration_days == pytest.approx(1.5)

    def test_start_hour_offset(self):
        s = generate_usage_series(
            process(), 1.0, 30.0, np.random.default_rng(0), start_hour=12.0
        )
        assert s.hours()[0] == pytest.approx(12.0, abs=0.1)

    def test_deterministic(self):
        a = series(seed=9)
        b = series(seed=9)
        assert np.array_equal(a.rates_mbps, b.rates_mbps)

    def test_invalid_duration(self):
        with pytest.raises(DatasetError):
            generate_usage_series(process(), 0.0, 30.0, np.random.default_rng(0))

    def test_too_short_window(self):
        with pytest.raises(DatasetError):
            generate_usage_series(
                process(), 0.001, 30.0, np.random.default_rng(0)
            )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DatasetError):
            UsageSeries(
                interval_s=30.0,
                start_hour=0.0,
                rates_mbps=np.zeros(10),
                bt_active=np.zeros(5, dtype=bool),
            )


class TestBatchedDrawsOracle:
    """Batched session draws equal the per-session loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        peak=st.floats(0.05, 50.0),
        activity=st.floats(0.0, 1.0),
        sigma=st.floats(0.0, 2.0),
        bt=st.booleans(),
        days=st.sampled_from([0.02, 0.3, 1.0, 2.5]),
        interval=st.sampled_from([30.0, 60.0, 900.0]),
        start_hour=st.floats(0.0, 24.0, exclude_max=True),
    )
    def test_matches_loop(
        self, seed, peak, activity, sigma, bt, days, interval, start_hour
    ):
        demand = DemandProcess(
            offered_peak_mbps=peak,
            ceiling_mbps=10.0,
            activity_level=activity,
            burstiness_sigma=sigma,
            rate_median_share=0.35,
            bt_user=bt,
        )
        assume(int(round(days * 86_400.0 / interval)) >= 10)
        oracle_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        expected = generate_usage_series_loop(
            demand, days, interval, oracle_rng, start_hour
        )
        got = generate_usage_series(demand, days, interval, rng, start_hour)
        assert got.rates_mbps.tobytes() == expected.rates_mbps.tobytes()
        assert got.up_rates_mbps.tobytes() == expected.up_rates_mbps.tobytes()
        assert got.bt_active.tobytes() == expected.bt_active.tobytes()
        assert rng.random() == oracle_rng.random()
