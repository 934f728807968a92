"""Straight-line scalar oracle for IQB scoring.

One household at a time, plain Python floats: the reference that the
property suite in ``test_iqb.py`` holds
:func:`repro.analysis.iqb.score_columns` to, bit for bit. It performs
the same divisions, clips and weighted sums in the same order as the
vectorized path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.iqb import IqbConfig, IqbRequirement, resolve_iqb_config
from repro.datasets.records import UserRecord


@dataclass(frozen=True)
class RecordScore:
    """One household's scores via the scalar oracle."""

    use_case_scores: dict[str, float]
    composite: float
    ready: bool


def _metric_values(user: UserRecord) -> dict[str, float]:
    return {
        "download_mbps": user.capacity_down_mbps,
        "upload_mbps": user.current.capacity_up_mbps,
        "latency_ms": user.latency_ms,
        "loss_fraction": user.loss_fraction,
    }


def _requirement_score(requirement: IqbRequirement, value: float) -> float:
    if not math.isfinite(value):
        return 0.0
    if requirement.kind == "min":
        return min(1.0, max(0.0, value / requirement.threshold))
    if value <= requirement.threshold:
        return 1.0
    return requirement.threshold / value


def score_record(
    user: UserRecord, config: IqbConfig | None = None
) -> RecordScore:
    """Score one household the way ``score_columns`` scores a column."""
    config = resolve_iqb_config(config)
    metrics = _metric_values(user)
    use_case_scores: dict[str, float] = {}
    ready = True
    composite_num = 0.0
    composite_den = 0.0
    for use_case in config.use_cases:
        numerator = 0.0
        denominator = 0.0
        for requirement in use_case.requirements:
            if requirement.weight <= 0:
                continue
            value = metrics[requirement.metric]
            numerator = numerator + requirement.weight * (
                _requirement_score(requirement, value)
            )
            denominator += requirement.weight
            if use_case.weight > 0:
                met = math.isfinite(value) and (
                    value >= requirement.threshold
                    if requirement.kind == "min"
                    else value <= requirement.threshold
                )
                ready = ready and met
        score = numerator / denominator
        use_case_scores[use_case.name] = score
        if use_case.weight > 0:
            composite_num = composite_num + use_case.weight * score
            composite_den += use_case.weight
    return RecordScore(
        use_case_scores=use_case_scores,
        composite=composite_num / composite_den,
        ready=ready,
    )
