"""Cross-market affordability (Table 4 of the paper).

The Table 4 metric of access cost as a share of monthly GDP per capita.
The paper's price-of-access groups (< $25, $25-60, > $60 per month) and
cost-of-upgrade classes (<= $0.50, $0.50-1.00, > $1.00 per +1 Mbps) are
bin specs in :mod:`repro.core.binning`.
"""

from __future__ import annotations

from ..exceptions import MarketError
from .economy import Economy

__all__ = ["cost_of_access_as_income_share"]


def cost_of_access_as_income_share(
    monthly_price_usd_ppp: float, economy: Economy
) -> float:
    """Monthly broadband cost as a fraction of monthly GDP per capita.

    Table 4 reports this as a percentage (e.g. 8.0% for Botswana); we
    return the fraction and leave formatting to the presentation layer.
    """
    if monthly_price_usd_ppp <= 0:
        raise MarketError(
            f"price must be positive, got {monthly_price_usd_ppp}"
        )
    return monthly_price_usd_ppp / economy.monthly_income_ppp_usd
