"""Statistical primitives used by the natural-experiment framework.

The one-tailed binomial test is implemented from first principles (the
binomial tail as a regularized incomplete beta function, evaluated by a
log-space continued fraction) because it is the load-bearing statistic
of the paper; the test suite cross-checks it against
``scipy.stats.binomtest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ..exceptions import AnalysisError

__all__ = [
    "BinomialTestResult",
    "ConfidenceInterval",
    "binomial_sf",
    "binomial_test_greater",
    "ecdf",
    "mean_confidence_interval",
    "pearson_r",
    "percentile",
    "regularized_incomplete_beta",
    "wilson_interval",
]

#: z value for a two-sided 95% normal confidence interval.
Z_95 = 1.959963984540054


def _z_for_level(level: float) -> float:
    """Two-sided normal z for a confidence level in (0, 1).

    The paper's 95% level returns the :data:`Z_95` constant *exactly*,
    keeping historical outputs (and the golden report) byte-stable.
    """
    if not 0.0 < level < 1.0:
        raise AnalysisError(
            f"confidence level must be in (0, 1), got {level}"
        )
    if level == 0.95:
        return Z_95
    return NormalDist().inv_cdf(0.5 + level / 2.0)


#: Continued-fraction convergence threshold and iteration cap; 300
#: iterations is far beyond what any (a, b, x) reachable from a binomial
#: tail needs (convergence is typically < 50 iterations).
_BETACF_EPS = 3.0e-16
_BETACF_MAX_ITER = 300
_BETACF_TINY = 1.0e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz).

    Evaluates the continued fraction of DLMF 8.17.22 with the modified
    Lentz algorithm; callers must ensure ``x < (a + 1) / (a + b + 2)``
    for fast convergence (use the symmetry transform otherwise).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise AnalysisError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``.

    The prefactor ``x^a (1-x)^b / (a B(a, b))`` is assembled in log
    space, so deep-tail values keep full relative accuracy down to the
    underflow limit of a double.
    """
    if a <= 0 or b <= 0:
        raise AnalysisError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise AnalysisError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def binomial_sf(k: int, n: int, p: float) -> float:
    """Upper tail ``P[X >= k]`` for ``X ~ Bin(n, p)``, evaluated stably.

    Uses the closed-form identity ``P[X >= k] = I_p(k, n - k + 1)``
    (regularized incomplete beta, DLMF 8.17.5) evaluated by a log-space
    continued fraction, never by complementing a floating-point lower
    tail — the complement route loses all relative accuracy exactly
    where p-values matter, in the deep tail. Unlike direct summation of
    the upper-tail PMF this is O(1) in ``n``, so p-values stay exact and
    cheap at 100k+ matched pairs; accuracy is verified against scipy in
    the test suite.
    """
    if n < 0:
        raise AnalysisError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"p={p} outside [0, 1]")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    total = regularized_incomplete_beta(float(k), float(n - k + 1), p)
    return min(1.0, max(0.0, total))


@dataclass(frozen=True)
class BinomialTestResult:
    """Outcome of a one-tailed (greater) exact binomial test."""

    n_successes: int
    n_trials: int
    null_probability: float
    p_value: float

    @property
    def fraction(self) -> float:
        """Observed success fraction; NaN when there were no trials."""
        if self.n_trials == 0:
            return math.nan
        return self.n_successes / self.n_trials

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level ``alpha``."""
        return self.p_value < alpha


def binomial_test_greater(
    n_successes: int, n_trials: int, null_probability: float = 0.5
) -> BinomialTestResult:
    """One-tailed exact binomial test, alternative "greater".

    This is the paper's significance test: under H0 the interaction between
    the two studied variables is random, so each matched pair supports the
    hypothesis with probability ``null_probability`` (0.5); the p-value is
    ``P[X >= n_successes]``.
    """
    if n_trials < 0 or n_successes < 0 or n_successes > n_trials:
        raise AnalysisError(
            f"invalid counts: {n_successes} successes of {n_trials} trials"
        )
    if n_trials == 0:
        return BinomialTestResult(0, 0, null_probability, 1.0)
    p_value = binomial_sf(n_successes, n_trials, null_probability)
    return BinomialTestResult(n_successes, n_trials, null_probability, p_value)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    center: float
    low: float
    high: float
    level: float = 0.95

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def mean_confidence_interval(
    values: Sequence[float] | np.ndarray, level: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation confidence interval for the mean.

    The default level matches the error bars of the paper's figures
    (95% CI of the mean); any level in (0, 1) is supported via the
    standard library's ``NormalDist``. A single observation yields a
    degenerate interval at the value.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute a confidence interval of nothing")
    z = _z_for_level(level)
    center = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(center, center, center, level)
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return ConfidenceInterval(center, center - z * sem, center + z * sem, level)


def wilson_interval(
    n_successes: int, n_trials: int, level: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Used to put uncertainty bands around the "% H holds" figures of the
    natural experiments; unlike the normal approximation it behaves at
    the edges (0%, 100%) and for small pair counts. Any level in (0, 1)
    is supported.
    """
    if n_trials <= 0 or n_successes < 0 or n_successes > n_trials:
        raise AnalysisError(
            f"invalid counts: {n_successes} of {n_trials}"
        )
    z = _z_for_level(level)
    p_hat = n_successes / n_trials
    denom = 1.0 + z * z / n_trials
    center = (p_hat + z * z / (2 * n_trials)) / denom
    half = (
        z
        * math.sqrt(
            p_hat * (1 - p_hat) / n_trials
            + z * z / (4 * n_trials * n_trials)
        )
        / denom
    )
    return ConfidenceInterval(
        center=p_hat,
        low=max(0.0, center - half),
        high=min(1.0, center + half),
        level=level,
    )


def pearson_r(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise AnalysisError("pearson_r expects two equal-length 1-D sequences")
    if xs.size < 2:
        raise AnalysisError("correlation needs at least two points")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return math.nan
    # When one variable's variance underflows to a subnormal, the
    # division can stray outside the mathematical range; clamp.
    return float(min(1.0, max(-1.0, float(xd @ yd) / denom)))


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), ``q`` in [0, 100]."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot take a percentile of nothing")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(arr, q))


def ecdf(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted unique support ``x`` and ``P[X <= x]``.

    Used to regenerate every CDF figure in the paper. Returns a pair of
    arrays of equal length; the second is non-decreasing and ends at 1.0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute the ECDF of nothing")
    xs, counts = np.unique(arr, return_counts=True)
    return xs, np.cumsum(counts) / arr.size
