"""Nearest-neighbor matching with a relative caliper.

The paper pairs each user in the "treatment" group with a similar user in
the "control" group, requiring the pair to be *within 25% of each other on
every confounding factor* (Sec. 3.2). Matching is 1:1 without replacement.

This module implements a deterministic, globally-greedy variant: all
caliper-compatible (control, treatment) candidate pairs are ranked by a
scale-free distance (the sum of absolute log-ratios over the confounders)
and accepted in order, skipping candidates whose endpoints were already
matched. Global greediness avoids the order-dependence of per-unit greedy
matching and makes results reproducible.

Candidates are enumerated by caliper window, not by testing every
(control, treatment) cell: the treatment pool is sorted once on its first
log-confounder, each control row takes only the treatment rows whose first
log-confounder lies within the caliper of its own (two binary searches),
and the exact all-confounder test runs on that window alone. The cost is
``O(n log n + window)`` rather than ``O(n_control * n_treatment)``, and the
candidate set, distances and acceptance order are those of the exhaustive
test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Generic, Sequence, TypeVar

import numpy as np

from ..exceptions import MatchingError
from ..obs import ledger as obs

__all__ = [
    "DEFAULT_CALIPER",
    "LOSS_MATCH_FLOOR",
    "MatchedPair",
    "MatchingSummary",
    "ZERO_FLOOR",
    "candidate_chunk_rows",
    "match_pairs",
    "match_pairs_arrays",
]

T = TypeVar("T")
U = TypeVar("U")

#: The paper's caliper: members of a pair must be within 25% of each other.
DEFAULT_CALIPER = 0.25

#: Values at or below this magnitude are treated as "zero" for ratio
#: comparisons (e.g. unmeasurably small packet-loss rates).
ZERO_FLOOR = 1e-6

#: Floor applied to *loss rates* before they enter the matching space, so
#: that two effectively loss-free lines count as similar. This is the
#: single source of truth for the loss floor — the confounder extractors
#: in :mod:`repro.analysis.common` import it from here. It must dominate
#: :data:`ZERO_FLOOR`: the matcher floors every confounder at
#: ``ZERO_FLOOR`` as a last resort, and a loss floor below it would be
#: silently overridden, changing caliper semantics for near-zero loss.
LOSS_MATCH_FLOOR = 1e-4

assert LOSS_MATCH_FLOOR >= ZERO_FLOOR, (
    "the loss floor must dominate the generic zero floor, or the "
    "matcher's own flooring would silently change caliper semantics"
)

#: Memory budget for one candidate-enumeration block, in float64 cells
#: (~32 MB). A block of control rows expands its caliper windows into at
#: most ``chunk * n_treatment`` candidates of one cell per confounder, so
#: dividing the budget by both keeps the worst case (every treatment row
#: in every window) bounded; typical windows are a small fraction of it.
CANDIDATE_CELL_BUDGET = 4_000_000

#: Ranked candidates handed to the accept loop per ``.tolist()`` slice.
ACCEPT_SLICE = 1 << 18


def candidate_chunk_rows(
    n_treatment: int,
    n_confounders: int,
    cell_budget: int = CANDIDATE_CELL_BUDGET,
) -> int:
    """Control rows per candidate-enumeration block.

    A block's caliper windows can hold up to ``chunk * n_treatment``
    candidates with ``n_confounders`` difference cells each, so the
    budget must be divided by *both* — dividing by the treatment count
    alone would let peak memory grow ``n_confounders``-fold past the
    bound.
    """
    cells_per_row = max(1, n_treatment) * max(1, n_confounders)
    return max(1, cell_budget // cells_per_row)


@dataclass(frozen=True)
class MatchedPair(Generic[T, U]):
    """A matched (control, treatment) pair and its confounder distance."""

    control: T
    treatment: U
    distance: float


@dataclass(frozen=True)
class MatchingSummary(Generic[T, U]):
    """The result of a matching run."""

    pairs: tuple[MatchedPair[T, U], ...]
    n_control: int
    n_treatment: int
    caliper: float

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def _log_confounder_column(values: np.ndarray, label: str) -> np.ndarray:
    """Validate one confounder column (finite, non-negative) and take it
    to log space."""
    invalid = ~np.isfinite(values) | (values < 0)
    if invalid.any():
        value = float(values[int(np.argmax(invalid))])
        raise MatchingError(
            f"confounder {label} produced invalid value {value!r}"
        )
    return np.log(np.maximum(values, ZERO_FLOOR))


def match_pairs(
    control: Sequence[T],
    treatment: Sequence[U],
    confounders: Sequence[Callable],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary[T, U]:
    """Match control and treatment units on shared confounders.

    A record adapter over :func:`match_pairs_arrays`: each confounder is
    extracted into one float array per pool, and the accepted index
    pairs are mapped back to the units.

    Parameters
    ----------
    control, treatment:
        The two unit pools; elements are arbitrary objects.
    confounders:
        Callables extracting one non-negative float per unit (applied to
        units of both pools). Every confounder must pass the caliper check
        for a pair to be eligible.
    caliper:
        Maximum relative difference per confounder (default 25%).
    max_pairs:
        Optional cap on the number of accepted pairs (cheapest-distance
        pairs are kept); ``None`` or an integer >= 0.
    """

    def _columns(units: Sequence) -> list[np.ndarray]:
        return [
            np.fromiter(
                (float(extract(unit)) for unit in units),
                dtype=float,
                count=len(units),
            )
            for extract in confounders
        ]

    by_index = match_pairs_arrays(
        _columns(control), _columns(treatment), caliper, max_pairs
    )
    return replace(
        by_index,
        pairs=tuple(
            MatchedPair(control[p.control], treatment[p.treatment], p.distance)
            for p in by_index.pairs
        ),
    )


def match_pairs_arrays(
    control_confounders: Sequence[np.ndarray],
    treatment_confounders: Sequence[np.ndarray],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary[int, int]:
    """Match two pools given as one 1-D float array per confounder.

    The one matching implementation: :func:`match_pairs` is a record
    adapter over it. Arrays within a pool share one length; the returned
    pairs carry *indices* into the pools. Every run is counted in the
    run ledger (pool sizes, caliper-compatible candidates, pairs).
    """
    if caliper <= 0:
        raise MatchingError(f"caliper must be positive, got {caliper}")
    if max_pairs is not None and (
        isinstance(max_pairs, bool)
        or not isinstance(max_pairs, numbers.Integral)
        or max_pairs < 0
    ):
        raise MatchingError(
            f"max_pairs must be None or an integer >= 0, got {max_pairs!r}"
        )
    if not control_confounders or not treatment_confounders:
        raise MatchingError("at least one confounder is required")
    if len(control_confounders) != len(treatment_confounders):
        raise MatchingError(
            "control and treatment must share the same confounder set"
        )

    def _matrix(arrays: Sequence[np.ndarray], pool: str) -> np.ndarray:
        columns = []
        n_units = None
        for i, values in enumerate(arrays):
            values = np.asarray(values, dtype=float)
            if values.ndim != 1:
                raise MatchingError(
                    f"{pool} confounder column {i} must be 1-D"
                )
            if n_units is None:
                n_units = values.size
            elif values.size != n_units:
                raise MatchingError(
                    f"{pool} confounder columns disagree on pool size"
                )
            columns.append(
                _log_confounder_column(values, f"column {i} ({pool})")
            )
        return np.column_stack(columns).reshape(n_units, len(arrays))

    log_c = _matrix(control_confounders, "control")
    log_t = _matrix(treatment_confounders, "treatment")
    accepted, n_candidates = _greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    summary = MatchingSummary(
        pairs=tuple(MatchedPair(c, t, dist) for c, t, dist in accepted),
        n_control=log_c.shape[0],
        n_treatment=log_t.shape[0],
        caliper=caliper,
    )
    # Run-ledger accounting (no-op outside a traced run).
    obs.count("matching.runs")
    obs.count("matching.pool.control", summary.n_control)
    obs.count("matching.pool.treatment", summary.n_treatment)
    obs.count("matching.candidates", n_candidates)
    obs.count("matching.pairs", summary.n_matched)
    return summary


def _greedy_index_pairs(
    log_c: np.ndarray,
    log_t: np.ndarray,
    caliper: float,
    max_pairs: int | None,
) -> tuple[list[tuple[int, int, float]], int]:
    """The deterministic globally-greedy core, over log-space matrices.

    Returns accepted ``(control_index, treatment_index, distance)``
    triples (in acceptance order) and the caliper-compatible candidate
    count. The ``lexsort`` tie-break on (distance, control, treatment)
    makes the result a pure function of the matrices: exact distance
    ties go to the lower pool index, so pool order decides them.
    """
    bound = math.log(1.0 + caliper) + 1e-12
    n_control, n_confounders = log_c.shape
    n_treatment = log_t.shape[0]

    # Candidates lie in a window of the treatment pool sorted on the
    # first log-confounder. The window is 1e-9 wider than the exact test:
    # log values of finite doubles are below 710 in magnitude, so the
    # rounding of ``c0 ± window`` (< 1e-13) can never drop a candidate,
    # and the exact test below removes the extras.
    t_order = np.argsort(log_t[:, 0], kind="stable")
    t_first = log_t[t_order, 0]
    window = bound + 1e-9

    # A chunk's windows expand to at most chunk * n_treatment candidates
    # of n_confounders cells each, so the cell budget bounds each block's
    # difference matrix. It does not bound the concatenated candidate
    # arrays below, which grow with the number of compatible pairs.
    chunk = candidate_chunk_rows(n_treatment, n_confounders)
    ci_parts: list[np.ndarray] = []
    ti_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    for start in range(0, n_control, chunk):
        block = log_c[start : start + chunk]
        lo = np.searchsorted(t_first, block[:, 0] - window, side="left")
        hi = np.searchsorted(t_first, block[:, 0] + window, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if not total:
            continue
        rows = np.repeat(np.arange(block.shape[0]), counts)
        # Position of each candidate in the sorted pool: its window's
        # start plus its offset within the window.
        ends = np.cumsum(counts)
        sorted_pos = np.arange(total) + np.repeat(lo - (ends - counts), counts)
        cols = t_order[sorted_pos]
        # |log a - log b| per (candidate, confounder).
        diff = np.abs(block[rows] - log_t[cols])
        compatible = np.all(diff <= bound, axis=1)
        if compatible.any():
            ci_parts.append(rows[compatible] + start)
            ti_parts.append(cols[compatible])
            dist_parts.append(diff.sum(axis=1)[compatible])
    if not ci_parts:
        return [], 0
    ci = np.concatenate(ci_parts)
    ti = np.concatenate(ti_parts)
    pair_distance = np.concatenate(dist_parts)
    order = np.lexsort((ti, ci, pair_distance))

    # Nothing can be accepted once the smaller pool is used up.
    target = min(n_control, n_treatment)
    if max_pairs is not None:
        target = min(target, max_pairs)
    used_control = bytearray(n_control)
    used_treatment = bytearray(n_treatment)
    accepted: list[tuple[int, int, float]] = []
    # The ranked candidates reach Python one bounded slice at a time, so
    # the accept loop never holds a list of every candidate.
    for start in range(0, order.size if target else 0, ACCEPT_SLICE):
        ranked = order[start : start + ACCEPT_SLICE]
        for c, t, dist in zip(
            ci[ranked].tolist(),
            ti[ranked].tolist(),
            pair_distance[ranked].tolist(),
        ):
            if used_control[c] or used_treatment[t]:
                continue
            used_control[c] = 1
            used_treatment[t] = 1
            accepted.append((c, t, dist))
            if len(accepted) == target:
                return accepted, int(ci.size)
    return accepted, int(ci.size)
