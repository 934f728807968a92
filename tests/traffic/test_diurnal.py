"""Diurnal activity pattern."""

import numpy as np
import pytest

from repro.traffic.diurnal import (
    EVENING_PEAK_HOUR,
    NIGHT_FLOOR,
    diurnal_weight,
)


class TestDiurnalWeight:
    def test_peak_at_evening(self):
        assert diurnal_weight(EVENING_PEAK_HOUR) == pytest.approx(1.0)

    def test_trough_near_4am(self):
        assert diurnal_weight(4.0) < 0.3

    def test_floor_respected(self):
        hours = np.linspace(0, 24, 500)
        assert np.min(diurnal_weight(hours)) >= NIGHT_FLOOR - 1e-9

    def test_max_is_one(self):
        hours = np.linspace(0, 24, 2000)
        assert np.max(diurnal_weight(hours)) <= 1.0 + 1e-9

    def test_midday_shoulder(self):
        assert diurnal_weight(13.0) > diurnal_weight(5.0)

    def test_evening_beats_midday(self):
        assert diurnal_weight(EVENING_PEAK_HOUR) > diurnal_weight(13.0)

    def test_periodic(self):
        assert diurnal_weight(1.0) == pytest.approx(diurnal_weight(25.0))

    def test_scalar_returns_float(self):
        assert isinstance(diurnal_weight(12.0), float)

    def test_array_shape_preserved(self):
        hours = np.array([0.0, 6.0, 12.0, 18.0])
        assert diurnal_weight(hours).shape == hours.shape

    def test_mean_weight_between_floor_and_one(self):
        hours = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        mean = float(np.mean(diurnal_weight(hours)))
        assert NIGHT_FLOOR < mean < 1.0
