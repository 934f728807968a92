"""Unit conversions."""

import pytest

from repro import units


class TestRateConversions:
    def test_mbps_to_kbps(self):
        assert units.mbps_to_kbps(1.0) == 1000.0

    def test_mbps_to_bytes_per_sec(self):
        # 1 Mbps = 1e6 bits/s = 125000 bytes/s.
        assert units.mbps_to_bytes_per_sec(1.0) == 125_000.0

    def test_bytes_to_megabits(self):
        assert units.bytes_to_megabits(125_000) == 1.0


class TestPercentConversions:
    def test_fraction_to_percent(self):
        assert units.fraction_to_percent(0.014) == pytest.approx(1.4)


class TestConstants:
    def test_uint32_wrap(self):
        assert units.UINT32_WRAP == 2**32

    def test_seconds_per_day(self):
        assert units.SECONDS_PER_DAY == 24 * 3600

    def test_bits_per_megabit_is_decimal(self):
        # Network rates are decimal megabits, not mebibits.
        assert units.BITS_PER_MEGABIT == 10**6
