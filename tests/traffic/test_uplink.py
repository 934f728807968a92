"""Uplink generation and collection invariants."""

import numpy as np
import pytest

from repro.behavior.demand import DemandProcess
from repro.measurement.dasu import DasuClient, DasuVantage
from repro.measurement.gateway import FccGateway
from repro.traffic.generator import generate_usage_series


def process(bt=False, upload_share=0.06, up_ceiling=1.0):
    return DemandProcess(
        offered_peak_mbps=2.0,
        ceiling_mbps=10.0,
        activity_level=0.6,
        burstiness_sigma=1.0,
        rate_median_share=0.35,
        bt_user=bt,
        upload_share=upload_share,
        up_ceiling_mbps=up_ceiling,
    )


def series(seed=0, days=4.0, **kwargs):
    return generate_usage_series(
        process(**kwargs), days, 30.0, np.random.default_rng(seed)
    )


class TestUplinkGeneration:
    def test_uplink_present_and_aligned(self):
        s = series()
        assert s.up_rates_mbps is not None
        assert s.up_rates_mbps.shape == s.rates_mbps.shape

    def test_uplink_capped_by_up_ceiling(self):
        s = series(up_ceiling=0.5)
        assert np.all(s.up_rates_mbps <= 0.5)

    def test_uplink_mirrors_downlink_share(self):
        s = series(upload_share=0.1)
        busy = s.rates_mbps > 0.1
        ratio = s.up_rates_mbps[busy].sum() / s.rates_mbps[busy].sum()
        assert 0.03 < ratio < 0.3

    def test_seeding_saturates_uplink(self):
        for seed in range(8):
            s = series(seed=seed, bt=True, up_ceiling=1.0)
            if s.bt_active.any():
                bt_up = s.up_rates_mbps[s.bt_active]
                assert np.median(bt_up) > 0.5  # near the 1.0 ceiling
                return
        pytest.fail("no BT activity in eight draws")

    def test_higher_upload_share_more_uplink(self):
        low = series(seed=3, upload_share=0.03).up_rates_mbps.mean()
        high = series(seed=3, upload_share=0.3).up_rates_mbps.mean()
        assert high > 2 * low

    def test_invalid_upload_share_rejected(self):
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError):
            process(upload_share=0.0)
        with pytest.raises(DatasetError):
            process(up_ceiling=0.0)


class TestUplinkCollection:
    def test_dasu_collects_uplink(self):
        s = series(days=6.0)
        client = DasuClient(DasuVantage.UPNP, np.random.default_rng(1))
        sampled = client.collect(s)
        assert sampled.up_rates_mbps is not None
        assert sampled.up_rates_mbps.shape == sampled.rates_mbps.shape

    def test_collected_uplink_near_truth(self):
        s = series(days=8.0, seed=5)
        client = DasuClient(DasuVantage.DIRECT, np.random.default_rng(2))
        sampled = client.collect(s)
        # Mean of collected uplink within the diurnal-bias envelope.
        assert sampled.up_rates_mbps.mean() == pytest.approx(
            s.up_rates_mbps.mean(), rel=1.0
        )

    def test_gateway_uplink_aligned_with_downlink_records(self):
        s = series(days=3.0, seed=4)
        gateway = FccGateway(np.random.default_rng(3), loss_rate=0.2)
        down, hours, up = gateway.collect(s)
        assert up is not None
        assert up.shape == down.shape == hours.shape
        # Both directions lose the same hourly records: with an uplink
        # that mirrors the downlink, every kept record mirrors too.
        mirrored = type(s)(
            interval_s=s.interval_s,
            start_hour=s.start_hour,
            rates_mbps=s.rates_mbps,
            bt_active=s.bt_active,
            up_rates_mbps=s.rates_mbps / 2.0,
        )
        gateway = FccGateway(np.random.default_rng(3), loss_rate=0.2)
        down, _, up = gateway.collect(mirrored)
        assert down.size < s.n_samples // 120
        np.testing.assert_allclose(up, down / 2.0, rtol=1e-12)

    def test_gateway_uplink_mean_preserved(self):
        s = series(days=3.0, seed=4)
        gateway = FccGateway(np.random.default_rng(3), loss_rate=0.0)
        _, _, up = gateway.collect(s)
        assert up.mean() == pytest.approx(s.up_rates_mbps.mean(), rel=1e-9)

    def test_gateway_uplink_none_without_series_uplink(self):
        s = series(days=2.0)
        stripped = type(s)(
            interval_s=s.interval_s,
            start_hour=s.start_hour,
            rates_mbps=s.rates_mbps,
            bt_active=s.bt_active,
            up_rates_mbps=None,
        )
        gateway = FccGateway(np.random.default_rng(0))
        down, hours, up = gateway.collect(stripped)
        assert up is None
        assert down.shape == hours.shape
