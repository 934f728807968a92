"""Run-ledger observability: spans, counters, gauges, and manifests.

The pipeline's provenance layer. :mod:`repro.obs.ledger` holds the
mergeable event model (recorded in workers, merged deterministically in
the parent — see :func:`repro.core.executor.run_sharded`);
:mod:`repro.obs.manifest` assembles the per-run provenance record.
``repro build/report --trace`` serializes both.
"""

from .ledger import (
    RunLedger,
    Span,
    count,
    current,
    format_profile,
    gauge,
    scoped,
    span,
)

__all__ = [
    "RunLedger",
    "Span",
    "count",
    "current",
    "format_profile",
    "gauge",
    "scoped",
    "span",
]
