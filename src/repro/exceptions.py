"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class BinningError(ReproError, ValueError):
    """A value could not be assigned to a bin, or a bin spec is invalid."""


class MatchingError(ReproError, ValueError):
    """Matching could not be performed (bad caliper, missing confounders)."""


class ExperimentError(ReproError, ValueError):
    """A natural experiment was configured or executed incorrectly."""


class MarketError(ReproError, ValueError):
    """A broadband market or plan definition is inconsistent."""


class MeasurementError(ReproError, RuntimeError):
    """A simulated measurement client hit an unrecoverable condition."""


class DatasetError(ReproError, ValueError):
    """A dataset could not be built, loaded, or validated."""


class AnalysisError(ReproError, ValueError):
    """An analysis routine received data it cannot work with."""


class LedgerError(ReproError, ValueError):
    """A run-ledger event or merge was invalid (see :mod:`repro.obs`)."""


class SweepError(ReproError, ValueError):
    """A scenario grid or sweep run was invalid (see :mod:`repro.sweep`)."""


class DagError(ReproError, ValueError):
    """An experiment DAG spec or run was invalid (see :mod:`repro.dag`)."""
