"""Dense reference for the matching core.

The previous implementation of
:func:`repro.core.matching._greedy_index_pairs`, kept verbatim: it
materializes the full ``(control, treatment, confounder)`` difference
array in control-row chunks and tests every cell. The caliper-window
core in ``src/`` must return the same ``(control, treatment, distance)``
triples, bit for bit, and the same candidate count; the property suite
in ``test_matching.py`` holds it to that.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.matching import candidate_chunk_rows


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
