"""Affordability metrics."""

import math

import pytest

from repro.core.binning import (
    PRICE_OF_ACCESS_BINS_USD,
    UPGRADE_COST_BINS_USD,
    explicit_bins,
)
from repro.exceptions import MarketError
from repro.market.affordability import cost_of_access_as_income_share
from repro.market.currency import USD
from repro.market.economy import DevelopmentLevel, Economy, Region

#: The group and class lookups the Sec. 5 and Sec. 6 analyses run.
price_of_access_bin = explicit_bins(PRICE_OF_ACCESS_BINS_USD).bin_of
upgrade_cost_bin = explicit_bins(UPGRADE_COST_BINS_USD).bin_of


class TestPriceOfAccessBin:
    def test_cheap(self):
        assert price_of_access_bin(20.0).high == 25.0

    def test_boundary_25_in_cheap(self):
        assert price_of_access_bin(25.0).high == 25.0

    def test_mid(self):
        assert price_of_access_bin(40.0).low == 25.0

    def test_expensive_unbounded(self):
        assert math.isinf(price_of_access_bin(150.0).high)

    def test_invalid(self):
        # A non-positive price falls in no group.
        assert price_of_access_bin(0.0) is None
        assert price_of_access_bin(-5.0) is None


class TestUpgradeCostBin:
    def test_cheap(self):
        assert upgrade_cost_bin(0.3).high == 0.5

    def test_mid(self):
        b = upgrade_cost_bin(0.8)
        assert b.low == 0.5 and b.high == 1.0

    def test_expensive(self):
        assert upgrade_cost_bin(55.0).low == 1.0

    def test_invalid(self):
        assert upgrade_cost_bin(-1.0) is None
        assert upgrade_cost_bin(0.0) is None


class TestIncomeShare:
    def test_botswana_row(self):
        economy = Economy(
            country="Botswana",
            region=Region.AFRICA,
            development=DevelopmentLevel.DEVELOPING,
            gdp_per_capita_ppp_usd=14_993.0,
            currency=USD,
            internet_penetration=0.12,
        )
        share = cost_of_access_as_income_share(100.0, economy)
        # Table 4: $100/month is 8.0% of monthly GDP per capita.
        assert share == pytest.approx(0.080, abs=0.001)

    def test_us_row(self):
        economy = Economy(
            country="US",
            region=Region.NORTH_AMERICA,
            development=DevelopmentLevel.DEVELOPED,
            gdp_per_capita_ppp_usd=49_797.0,
            currency=USD,
            internet_penetration=0.81,
        )
        share = cost_of_access_as_income_share(53.0, economy)
        assert share == pytest.approx(0.013, abs=0.001)

    def test_invalid_price(self):
        economy = Economy(
            "X", Region.EUROPE, DevelopmentLevel.DEVELOPED, 30_000.0, USD, 0.8
        )
        with pytest.raises(MarketError):
            cost_of_access_as_income_share(0.0, economy)
