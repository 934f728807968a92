"""Per-market price~capacity regression (Sec. 6 of the paper).

For every country market the paper fits ordinary least squares of monthly
price (USD PPP) against download capacity (Mbps) over the market's retail
plans. When price and capacity are at least moderately correlated
(``r > 0.4``) the slope of the fit estimates the *cost of increasing
capacity by 1 Mbps* in that market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import AnalysisError
from .stats import pearson_r

__all__ = [
    "MODERATE_CORRELATION",
    "STRONG_CORRELATION",
    "MarketRegression",
    "fit_price_capacity",
]

#: Correlation thresholds the paper uses to qualify markets.
MODERATE_CORRELATION = 0.4
STRONG_CORRELATION = 0.8


@dataclass(frozen=True)
class MarketRegression:
    """OLS fit of plan price against plan capacity for one market."""

    slope_usd_per_mbps: float
    intercept_usd: float
    correlation: float
    n_plans: int

    @property
    def moderately_correlated(self) -> bool:
        """Whether the slope is usable as a cost-of-upgrade estimate."""
        return self.correlation > MODERATE_CORRELATION


def fit_price_capacity(
    capacities_mbps: Sequence[float],
    prices_usd: Sequence[float],
) -> MarketRegression:
    """Fit OLS ``price = intercept + slope * capacity`` for one market.

    Requires at least two plans with distinct capacities; markets with a
    single plan carry no upgrade-cost information and must be skipped by
    the caller.
    """
    x = np.asarray(capacities_mbps, dtype=float)
    y = np.asarray(prices_usd, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("capacities and prices must be equal-length 1-D")
    if x.size < 2:
        raise AnalysisError("a market regression needs at least two plans")
    if np.ptp(x) == 0.0:
        raise AnalysisError("all plans have the same capacity; slope undefined")
    xd = x - x.mean()
    slope = float((xd @ (y - y.mean())) / (xd @ xd))
    intercept = float(y.mean() - slope * x.mean())
    r = pearson_r(x, y)
    return MarketRegression(
        slope_usd_per_mbps=slope,
        intercept_usd=intercept,
        correlation=r,
        n_plans=int(x.size),
    )
