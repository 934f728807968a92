"""The Dasu client: biased sampling and counter handling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.demand import DemandProcess
from repro.exceptions import MeasurementError
from repro.measurement import dasu
from repro.measurement.dasu import DasuClient, DasuVantage, SampledUsage
from repro.traffic.generator import generate_usage_series

from .counter_oracle import counter_readings_loop


def make_series(days=4.0, bt=True, seed=0, peak=2.0, ceiling=10.0):
    process = DemandProcess(
        offered_peak_mbps=peak,
        ceiling_mbps=ceiling,
        activity_level=0.6,
        burstiness_sigma=1.0,
        rate_median_share=0.35,
        bt_user=bt,
    )
    return generate_usage_series(
        process, days, 30.0, np.random.default_rng(seed)
    )


class TestCollect:
    @pytest.mark.parametrize("vantage", list(DasuVantage))
    def test_collects_a_subset(self, vantage):
        series = make_series()
        client = DasuClient(vantage, np.random.default_rng(1))
        sampled = client.collect(series)
        assert 0 < sampled.n_samples < series.n_samples

    def test_rates_plausible(self):
        series = make_series(bt=False)
        client = DasuClient(DasuVantage.DIRECT, np.random.default_rng(1))
        sampled = client.collect(series)
        assert np.all(sampled.rates_mbps >= 0)
        assert np.percentile(sampled.rates_mbps, 99) <= 10.0 * 1.01

    def test_mean_close_to_truth_upnp(self):
        # Counter artifacts must not bias the recovered rates: compare
        # the collected mean against the true mean over collected hours.
        series = make_series(days=8.0, bt=False)
        client = DasuClient(DasuVantage.UPNP, np.random.default_rng(2))
        sampled = client.collect(series)
        # Allow the diurnal sampling bias but nothing pathological.
        assert sampled.rates_mbps.mean() == pytest.approx(
            series.rates_mbps.mean(), rel=1.0
        )

    def test_sampling_is_peak_biased(self):
        # Dasu means exceed the whole-day truth (the Fig. 3 offset).
        ratios = []
        for seed in range(30):
            series = make_series(days=10.0, bt=False, seed=seed)
            client = DasuClient(
                DasuVantage.DIRECT, np.random.default_rng(100 + seed)
            )
            sampled = client.collect(series)
            if sampled.n_samples > 100:
                ratios.append(sampled.rates_mbps.mean() / series.rates_mbps.mean())
        assert np.mean(ratios) > 1.03

    def test_bt_flags_preserved(self):
        series = make_series(days=6.0, bt=True)
        client = DasuClient(DasuVantage.DIRECT, np.random.default_rng(3))
        sampled = client.collect(series)
        if series.bt_active.any():
            assert sampled.bt_active.dtype == bool

    def test_summary_excludes_bt(self):
        series = make_series(days=6.0, bt=True, seed=5)
        client = DasuClient(DasuVantage.DIRECT, np.random.default_rng(4))
        sampled = client.collect(series)
        if sampled.bt_active.any() and sampled.has_no_bt_samples:
            with_bt = sampled.summary(include_bt=True)
            without = sampled.summary(include_bt=False)
            assert without.mean_mbps <= with_bt.mean_mbps

    def test_hours_in_range(self):
        series = make_series()
        client = DasuClient(DasuVantage.UPNP, np.random.default_rng(5))
        sampled = client.collect(series)
        assert np.all((sampled.hours >= 0) & (sampled.hours < 24))

    def test_deterministic(self):
        series = make_series()
        a = DasuClient(DasuVantage.UPNP, np.random.default_rng(6)).collect(series)
        b = DasuClient(DasuVantage.UPNP, np.random.default_rng(6)).collect(series)
        assert np.array_equal(a.rates_mbps, b.rates_mbps)

    def test_invalid_miss_rate(self):
        with pytest.raises(MeasurementError):
            DasuClient(DasuVantage.UPNP, np.random.default_rng(0), read_miss_rate=1.0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(MeasurementError):
            SampledUsage(
                rates_mbps=np.zeros(3),
                bt_active=np.zeros(2, dtype=bool),
                hours=np.zeros(3),
            )


_RESET_CONSTANT = {
    DasuVantage.DIRECT: "REBOOT_PROBABILITY_PER_READ",
    DasuVantage.UPNP: "RESET_PROBABILITY_PER_READ",
}


class TestCounterReadingsOracle:
    """The one-pass reset rewind equals the per-reset loop, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        vantage=st.sampled_from(list(DasuVantage)),
        reset_probability=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
        byte_deltas=st.lists(
            st.integers(0, 2**31), min_size=1, max_size=300
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop(self, vantage, reset_probability, byte_deltas, seed):
        deltas = np.array(byte_deltas, dtype=np.int64)
        oracle_rng = np.random.default_rng(seed)
        expected = counter_readings_loop(
            vantage, oracle_rng, deltas, reset_probability
        )
        client = DasuClient(vantage, np.random.default_rng(seed))
        with mock.patch.object(
            dasu, _RESET_CONSTANT[vantage], reset_probability
        ):
            got = client._counter_readings(deltas)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert client._rng.random() == oracle_rng.random()

    def test_collect_hours_are_the_series_hours(self):
        series = make_series()
        sampled = DasuClient(
            DasuVantage.UPNP, np.random.default_rng(5)
        ).collect(series)
        all_hours = series.hours()
        assert set(sampled.hours.tolist()) <= set(all_hours.tolist())
        slots = np.array([0, 7, series.n_samples - 1])
        assert series.hours(slots).tobytes() == all_hours[slots].tobytes()
