"""Service periods and the slow/fast upgrade pairing."""

import pytest

from repro.core import upgrades
from repro.exceptions import AnalysisError


def period(
    user="u1",
    isp="ISP-A",
    prefix="10.0.0.0/24",
    city="Northton",
    start=0.0,
    end=2.0,
    capacity=2.0,
    mean=0.1,
    peak=0.5,
):
    return upgrades.ServicePeriod(
        user_id=user,
        network=upgrades.NetworkId(isp, prefix, city),
        start_day=start,
        end_day=end,
        capacity_mbps=capacity,
        mean_mbps=mean,
        peak_mbps=peak,
        mean_no_bt_mbps=mean * 0.8,
        peak_no_bt_mbps=peak * 0.8,
    )


class TestServicePeriod:
    def test_duration(self):
        assert period(start=1.0, end=3.5).duration_days == 2.5

    def test_zero_duration_rejected(self):
        with pytest.raises(AnalysisError):
            period(start=1.0, end=1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(AnalysisError):
            period(capacity=0.0)

    def test_network_id_str(self):
        net = upgrades.NetworkId("ISP", "1.2.3.0/24", "City")
        assert str(net) == "ISP/1.2.3.0/24/City"


class TestSlowFastObservation:
    def test_pairs_extremes(self):
        periods = [
            period(end=1.0, capacity=1.0),
            period(prefix="p2", start=2.0, end=3.0, capacity=4.0),
            period(prefix="p3", start=4.0, end=5.0, capacity=2.0),
        ]
        obs = upgrades.slow_fast_observation(periods)
        assert obs is not None
        assert obs.slow.capacity_mbps == 1.0
        assert obs.fast.capacity_mbps == 4.0
        assert obs.capacity_ratio == 4.0

    def test_single_period_none(self):
        assert upgrades.slow_fast_observation([period()]) is None

    def test_insufficient_spread_none(self):
        periods = [
            period(end=1.0, capacity=2.0),
            period(prefix="p2", start=2.0, end=3.0, capacity=2.1),
        ]
        assert upgrades.slow_fast_observation(periods) is None

    def test_same_network_extremes_none(self):
        # Both stays on the same network id: capacity noise, not a switch.
        periods = [
            period(end=1.0, capacity=1.0),
            period(start=2.0, end=3.0, capacity=4.0),
        ]
        assert upgrades.slow_fast_observation(periods) is None

    def test_multi_user_rejected(self):
        periods = [period(user="a"), period(user="b", start=3.0, end=4.0)]
        with pytest.raises(AnalysisError):
            upgrades.slow_fast_observation(periods)
