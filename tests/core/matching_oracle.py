"""Scalar and dense references for the matching core.

:func:`dense_greedy_index_pairs` is the previous implementation of
:func:`repro.core.matching._greedy_index_pairs`, kept verbatim: it
materializes the full ``(control, treatment, confounder)`` difference
array in control-row chunks and tests every cell. The caliper-window
core in ``src/`` must return the same ``(control, treatment, distance)``
triples, bit for bit, and the same candidate count; the property suite
in ``test_matching.py`` holds it to that.

:func:`caliper_compatible` is the paper's caliper stated for one pair
of plain floats, the reading of "within 25% of each other" that the
vectorized log-space test must agree with.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.matching import (
    DEFAULT_CALIPER,
    ZERO_FLOOR,
    candidate_chunk_rows,
)
from repro.exceptions import MatchingError


def dense_greedy_index_pairs(
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
    limit = math.log(1.0 + caliper)
    n_control, n_confounders = log_c.shape
    n_treatment = log_t.shape[0]

    # Enumerate caliper-compatible candidate pairs in chunks of control rows
    # so peak memory stays bounded for large pools.
    chunk = candidate_chunk_rows(n_treatment, n_confounders)
    ci_parts: list[np.ndarray] = []
    ti_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    for start in range(0, n_control, chunk):
        block = log_c[start : start + chunk]
        # |log a - log b| per (control, treatment, confounder).
        diff = np.abs(block[:, None, :] - log_t[None, :, :])
        compatible = np.all(diff <= limit + 1e-12, axis=2)
        rows, cols = np.nonzero(compatible)
        if rows.size:
            ci_parts.append(rows + start)
            ti_parts.append(cols)
            dist_parts.append(diff.sum(axis=2)[rows, cols])
    if not ci_parts:
        return [], 0
    ci = np.concatenate(ci_parts)
    ti = np.concatenate(ti_parts)
    pair_distance = np.concatenate(dist_parts)
    order = np.lexsort((ti, ci, pair_distance))

    used_control = np.zeros(n_control, dtype=bool)
    used_treatment = np.zeros(n_treatment, dtype=bool)
    accepted: list[tuple[int, int, float]] = []
    budget = ci.size if max_pairs is None else max_pairs
    for idx in order:
        if len(accepted) >= budget:
            break
        c, t = int(ci[idx]), int(ti[idx])
        if used_control[c] or used_treatment[t]:
            continue
        used_control[c] = True
        used_treatment[t] = True
        accepted.append((c, t, float(pair_distance[idx])))
    return accepted, int(ci.size)


def caliper_compatible(a: float, b: float, caliper: float = DEFAULT_CALIPER) -> bool:
    """Whether two confounder values are within ``caliper`` of each other.

    "Within 25% of each other" is interpreted multiplicatively and
    symmetrically: ``max(a, b) <= (1 + caliper) * min(a, b)``, after flooring
    both values at :data:`ZERO_FLOOR` so that pairs of effectively-zero
    values (e.g. two loss-free lines) are compatible.

    Non-finite confounders are rejected with :class:`MatchingError`
    rather than silently falling through the comparisons: a NaN here
    means an upstream eligibility filter failed (missing market
    covariates surface as NaN — see
    :func:`repro.analysis.common._market_value` — and must be excluded
    *before* matching), and an infinity is equally meaningless — two
    ``inf`` values would satisfy ``inf <= 1.25 * inf`` and "match"
    despite carrying no information about similarity.
    """
    if caliper <= 0:
        raise MatchingError(f"caliper must be positive, got {caliper}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise MatchingError(
            f"confounders must be finite, got {a}, {b} "
            "(exclude users with missing covariates before matching)"
        )
    if a < 0 or b < 0:
        raise MatchingError(f"confounders must be non-negative, got {a}, {b}")
    lo = max(min(a, b), ZERO_FLOOR)
    hi = max(max(a, b), ZERO_FLOOR)
    return hi <= (1.0 + caliper) * lo
