"""Broadband retail-market substrate.

Models everything the paper's third dataset (the Google "Policy by the
Numbers" international plan survey) and the IMF macro data provide:

* :mod:`repro.market.currency` — currencies and PPP normalization;
* :mod:`repro.market.economy` — countries, regions, GDP per capita;
* :mod:`repro.market.countries` — the anchor profiles of real markets the
  paper names, plus synthetic fill to a ~100-country survey;
* :mod:`repro.market.plans` — retail plan records;
* :mod:`repro.market.market` — one country's plan market and its derived
  metrics (price of access, cost to upgrade);
* :mod:`repro.market.survey` — the global plan-survey generator;
* :mod:`repro.market.affordability` — access cost as a share of income.
"""

from .affordability import cost_of_access_as_income_share
from .currency import Currency, to_usd_ppp
from .economy import DevelopmentLevel, Economy, Region
from .market import CountryMarket
from .plans import BroadbandPlan, PlanTechnology
from .survey import PlanSurvey, generate_survey

__all__ = [
    "BroadbandPlan",
    "CountryMarket",
    "Currency",
    "DevelopmentLevel",
    "Economy",
    "PlanSurvey",
    "PlanTechnology",
    "Region",
    "cost_of_access_as_income_share",
    "generate_survey",
    "to_usd_ppp",
]
