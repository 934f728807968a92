"""Plain-text rendering of analysis results.

The benchmark harness and the examples print tables in the paper's
format, with the paper's reported value next to the measured one so the
reproduction can be eyeballed line by line.
"""

from __future__ import annotations

from ..core.experiments import ExperimentResult
from .common import BinnedCurve, MatchedExperimentResult

__all__ = [
    "format_curve",
    "format_experiment_row",
]


def format_experiment_row(
    label: str,
    paper_percent: float | None,
    result: ExperimentResult | MatchedExperimentResult,
) -> str:
    """One experiment as a table row: label, paper %, measured %, p, n."""
    if isinstance(result, MatchedExperimentResult):
        result = result.result
    star = "" if result.statistically_significant else "*"
    paper = "     -" if paper_percent is None else f"{paper_percent:5.1f}%"
    measured = (
        "   n/a"
        if result.n_pairs == 0
        else f"{100 * result.fraction_holds:5.1f}%{star}"
    )
    return (
        f"  {label:<38} paper {paper}   measured {measured:<8} "
        f"(n={result.n_pairs}, p={result.p_value:.3g})"
    )


def format_curve(title: str, curve: BinnedCurve) -> str:
    """A binned demand curve as an aligned text block."""
    lines = [f"{title} (r = {curve.correlation:.3f})"]
    for point in curve.points:
        lines.append(
            f"  {point.bin.label():<22} n={point.n_users:<5} "
            f"avg={point.average:8.4f} Mbps  "
            f"ci=[{point.ci.low:.4f}, {point.ci.high:.4f}]"
        )
    return "\n".join(lines)

