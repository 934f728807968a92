"""UPnP counter artifacts and correction."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.measurement.upnp import deltas_from_readings
from repro.units import UINT32_WRAP

from .counter_oracle import UpnpCounter


class TestUpnpCounter:
    def test_advance_and_read(self):
        counter = UpnpCounter(np.random.default_rng(0), reset_probability_per_read=0.0)
        start = counter.read()
        counter.advance(1000)
        assert counter.read() == (start + 1000) % UINT32_WRAP

    def test_wraps_at_32_bits(self):
        counter = UpnpCounter(np.random.default_rng(0), reset_probability_per_read=0.0)
        counter.advance(UINT32_WRAP + 5)
        value = counter.read()
        assert 0 <= value < UINT32_WRAP

    def test_negative_advance_rejected(self):
        counter = UpnpCounter(np.random.default_rng(0))
        with pytest.raises(MeasurementError):
            counter.advance(-1)

    def test_reset_eventually_happens(self):
        counter = UpnpCounter(
            np.random.default_rng(0), reset_probability_per_read=0.5
        )
        counter.advance(10_000)
        values = [counter.read() for _ in range(50)]
        assert 0 in values

    def test_invalid_reset_probability(self):
        with pytest.raises(MeasurementError):
            UpnpCounter(np.random.default_rng(0), reset_probability_per_read=1.0)


class TestDeltasFromReadings:
    def test_plain_deltas(self):
        readings = np.array([100, 250, 400])
        assert list(deltas_from_readings(readings)) == [150, 150]

    def test_wrap_corrected(self):
        near_top = UINT32_WRAP - 100
        readings = np.array([near_top, 50])
        assert list(deltas_from_readings(readings)) == [150]

    def test_reset_flagged(self):
        readings = np.array([1_000_000, 500])
        deltas = deltas_from_readings(readings)
        assert list(deltas) == [-1]

    def test_wrap_and_reset_distinguished(self):
        # A drop of more than half the range is a wrap; less is a reset.
        wrap = np.array([UINT32_WRAP - 10, 10])
        reset = np.array([UINT32_WRAP // 2 - 10, 10])
        assert deltas_from_readings(wrap)[0] == 20
        assert deltas_from_readings(reset)[0] == -1

    def test_mixed_sequence(self):
        readings = np.array([0, 100, UINT32_WRAP - 50, 50, 60, 0, 40])
        deltas = deltas_from_readings(readings)
        assert deltas[0] == 100
        assert deltas[2] == 100  # wrap corrected
        assert deltas[4] == -1  # reset
        assert deltas[5] == 40

    def test_round_trip_with_counter(self):
        rng = np.random.default_rng(5)
        counter = UpnpCounter(rng, reset_probability_per_read=0.0)
        true_deltas = rng.integers(0, 3_000_000_000, 200)
        readings = []
        for delta in true_deltas:
            counter.advance(int(delta))
            readings.append(counter.read())
        recovered = deltas_from_readings(np.array(readings))
        # All but possibly huge (> half-range) deltas recover exactly.
        for true, got in zip(true_deltas[1:], recovered):
            if true < UINT32_WRAP // 2:
                assert got == true % UINT32_WRAP or got == -1

    def test_too_few_readings_rejected(self):
        with pytest.raises(MeasurementError):
            deltas_from_readings(np.array([5]))

    def test_out_of_range_readings_rejected(self):
        with pytest.raises(MeasurementError):
            deltas_from_readings(np.array([0, UINT32_WRAP]))
        with pytest.raises(MeasurementError):
            deltas_from_readings(np.array([-1, 10]))
