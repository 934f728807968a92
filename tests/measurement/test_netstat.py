"""Host byte counters."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.measurement.netstat import deltas_from_netstat

from .counter_oracle import NetstatCounter


class TestNetstatCounter:
    def test_monotone_without_reboots(self):
        counter = NetstatCounter(
            np.random.default_rng(0), reboot_probability_per_read=0.0
        )
        values = []
        for _ in range(20):
            counter.advance(1000)
            values.append(counter.read())
        assert values == sorted(values)

    def test_starts_at_zero(self):
        counter = NetstatCounter(
            np.random.default_rng(0), reboot_probability_per_read=0.0
        )
        assert counter.read() == 0

    def test_negative_advance_rejected(self):
        with pytest.raises(MeasurementError):
            NetstatCounter(np.random.default_rng(0)).advance(-5)

    def test_reboot_resets(self):
        counter = NetstatCounter(
            np.random.default_rng(1), reboot_probability_per_read=0.9
        )
        counter.advance(10_000)
        values = [counter.read() for _ in range(20)]
        assert 0 in values


class TestDeltasFromNetstat:
    def test_plain_deltas(self):
        assert list(deltas_from_netstat(np.array([0, 10, 30]))) == [10, 20]

    def test_reboot_flagged(self):
        assert list(deltas_from_netstat(np.array([100, 5]))) == [-1]

    def test_negative_reading_rejected(self):
        with pytest.raises(MeasurementError):
            deltas_from_netstat(np.array([-5, 10]))

    def test_too_few_rejected(self):
        with pytest.raises(MeasurementError):
            deltas_from_netstat(np.array([1]))
