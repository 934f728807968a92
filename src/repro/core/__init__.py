"""Core analysis toolkit: the paper's primary methodological contribution.

This package implements the statistical machinery of Bischof et al. (IMC'14):

* :mod:`repro.core.stats` — exact one-tailed binomial tests, Pearson
  correlation, confidence intervals and empirical CDFs;
* :mod:`repro.core.binning` — the paper's exponential capacity classes and
  the various tier/price/quality bins used throughout the evaluation;
* :mod:`repro.core.metrics` — mean and peak (95th-percentile) demand;
* :mod:`repro.core.matching` — nearest-neighbor matching with a relative
  caliper, used to pair "similar" users across treatment groups;
* :mod:`repro.core.experiments` — the natural-experiment study design
  (hypothesis, %-holds, p-value, practical-significance margin);
* :mod:`repro.core.upgrades` — per-user service periods and the
  slow/fast network pairing of the upgrade experiment;
* :mod:`repro.core.regression` — per-market price~capacity regression used
  to estimate the cost of increasing capacity;
* :mod:`repro.core.executor` — deterministic sharded execution across
  worker processes (used by the world builder).
"""

from .binning import (
    CAPACITY_CLASS_BASE_MBPS,
    CASE_STUDY_TIERS,
    Bin,
    BinSpec,
    capacity_class_bounds,
    capacity_class_spec,
    explicit_bins,
)
from .executor import resolve_jobs, run_sharded
from .experiments import ExperimentResult, NaturalExperiment, PairedOutcome
from .matching import MatchedPair, MatchingSummary, match_pairs
from .metrics import DemandSummary, demand_summary
from .qed import QedResult, QuasiExperiment
from .regression import MarketRegression, fit_price_capacity
from .stats import (
    BinomialTestResult,
    ConfidenceInterval,
    binomial_test_greater,
    ecdf,
    mean_confidence_interval,
    pearson_r,
    percentile,
    wilson_interval,
)
from .upgrades import UpgradeObservation

__all__ = [
    "CAPACITY_CLASS_BASE_MBPS",
    "CASE_STUDY_TIERS",
    "Bin",
    "BinSpec",
    "BinomialTestResult",
    "ConfidenceInterval",
    "DemandSummary",
    "ExperimentResult",
    "MarketRegression",
    "MatchedPair",
    "MatchingSummary",
    "NaturalExperiment",
    "PairedOutcome",
    "QedResult",
    "QuasiExperiment",
    "UpgradeObservation",
    "binomial_test_greater",
    "capacity_class_bounds",
    "capacity_class_spec",
    "demand_summary",
    "ecdf",
    "explicit_bins",
    "fit_price_capacity",
    "match_pairs",
    "mean_confidence_interval",
    "pearson_r",
    "percentile",
    "resolve_jobs",
    "run_sharded",
    "wilson_interval",
]
