"""The experiment registry: one declaration per experiment.

Each :class:`Experiment` names the world slices it reads (``"dasu"``,
``"fcc"``, ``"survey"``), runs its analysis on them, and says how its
result reads out: labeled ``(label, paper %, ExperimentResult)``
``rows`` for a matched natural-experiment table, ``summary`` lines for
everything else. ``repro analyze`` offers and renders every entry with
``analyze`` set, the sweep (:mod:`repro.sweep.runners`) turns rows
into verdicts, and the report's fragments
(:mod:`repro.analysis.paper_report`) run the entry they are keyed by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.experiments import ExperimentResult
from . import (capacity, caps, characterization, diurnal, iqb, longitudinal,
               price, quality, segments, upgrade_cost, upload)
from .report import format_experiment_row

__all__ = ["ANALYZE_EXPERIMENTS", "REGISTRY", "Experiment", "table6_tag"]

#: One labeled table row: ``(label, paper %, result)``.
Row = tuple[str, float | None, ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration (see the module docstring)."""

    key: str
    #: The analysis, called with the declared slices in ``inputs`` order.
    analysis: Callable[..., object]
    inputs: tuple[str, ...] = ("dasu",)
    rows: Callable[[object], Sequence[Row]] | None = None
    summary: Callable[[object], list[str]] | None = None
    #: Whether ``repro analyze`` offers it.
    analyze: bool = True

    def run(self, dasu, fcc, survey) -> object:
        """The typed result, computed from the declared slices only."""
        slices = {"dasu": dasu, "fcc": fcc, "survey": survey}
        return self.analysis(*(slices[name] for name in self.inputs))


def table6_tag(include_bt: bool) -> str:
    """The label tag of one Table 6 panel."""
    return "w/ BT" if include_bt else "no BT"


def _table6_rows(panels) -> list[Row]:
    return [
        (f"{label} ({table6_tag(panel.include_bt)})", paper, matched.result)
        for panel in panels
        for label, paper, matched in panel.rows()
    ]


def _fig10_summary(r) -> list[str]:
    lines = [f"  qualifying markets: {r.n_countries}"]
    for country in ("Japan", "US", "Ghana"):
        cost = r.cost_for(country)
        if cost is not None:
            lines.append(f"  {country:<8} ${cost:.2f}/Mbps")
    return lines


_ENTRIES: tuple[Experiment, ...] = (
    Experiment("fig1", characterization.figure1, summary=lambda r: [
        f"  {label:<40} paper {paper:>8.3f} measured {measured:>8.3f}"
        for label, paper, measured in r.summary_rows()
    ]),
    Experiment("fig2", capacity.figure2, summary=lambda r: [
        f"  {title}: r = {curve.correlation:.3f}"
        for title, curve in r.panels()
    ]),
    Experiment("fig4", capacity.figure4, summary=lambda r: [
        f"  mean usage ratio at median: {r.mean_ratio_at_median:.2f}",
        f"  peak usage ratio at median: {r.peak_ratio_at_median:.2f}",
    ]),
    Experiment(
        "fig6",
        lambda dasu: longitudinal.figure6(dasu, min_users=30),
        summary=lambda r: [
            format_experiment_row(
                "2011 vs 2013", None, r.cross_year_experiment
            ),
            f"  max class drift: {r.max_class_drift():.3f}",
        ],
    ),
    Experiment("fig7", price.figure7, summary=lambda r: [
        f"  {entry.country:<14} capacity "
        f"{entry.median_capacity_mbps:8.2f} Mbps"
        f"  utilization {100 * entry.mean_peak_utilization:5.1f}%"
        for entry in r.countries
    ]),
    Experiment(
        "fig10", upgrade_cost.figure10, ("survey",), summary=_fig10_summary
    ),
    Experiment("fig11", quality.figure11, summary=lambda r: [
        f"  India lower demand than matched US: "
        f"{100 * r.india_lower_demand_share:.0f}% (paper 62%)"
    ]),
    Experiment("fig12", quality.figure12, summary=lambda r: [
        f"  median loss: India {r.india_median_loss_pct:.2f}% "
        f"vs rest {r.other_median_loss_pct:.3f}%"
    ]),
    Experiment("table1", capacity.table1, rows=lambda r: r.rows()),
    Experiment(
        "table2",
        lambda dasu: capacity.table2(dasu, "dasu"),
        rows=lambda r: [
            (f"{row.control_bin.label()} vs next", None, row.experiment.result)
            for row in r.rows
        ],
    ),
    Experiment("table3", price.table3, rows=lambda r: [
        (label, paper, matched.result) for label, paper, matched in r.rows()
    ]),
    Experiment("table5", upgrade_cost.table5, ("survey",), summary=lambda r: [
        f"  {row.region:<28} >$1 {100 * row.share_above_1:3.0f}%"
        f"  >$5 {100 * row.share_above_5:3.0f}%"
        f"  >$10 {100 * row.share_above_10:3.0f}%"
        for row in r.rows
        if row.n_countries
    ]),
    Experiment(
        "table6",
        # Both panels, with BitTorrent households first.
        lambda dasu: tuple(
            upgrade_cost.table6(dasu, include_bt=include_bt)
            for include_bt in (True, False)
        ),
        rows=_table6_rows,
    ),
    Experiment("table7", quality.table7, rows=lambda r: [
        (f"vs {row.treatment_bin.label('ms')}", row.paper_percent,
         row.experiment.result)
        for row in r.rows
    ]),
    Experiment("table8", quality.table8, rows=lambda r: [
        (row.experiment.result.name, row.paper_percent, row.experiment.result)
        for row in r.rows
    ]),
    # Extensions beyond the paper's evaluation.
    Experiment("caps", caps.caps_experiment, summary=lambda r: [
        f"  {r.n_tight_capped} tightly capped vs "
        f"{r.n_uncapped} uncapped users",
        format_experiment_row(
            "uncapped demand more", None, r.experiment.result
        ),
    ]),
    Experiment(
        "diurnal",
        diurnal.population_diurnal_profile,
        summary=lambda r: [
            f"  peak hour {r.peak_hour}:00, trough {r.trough_hour}:00, "
            f"peak/trough x{r.peak_to_trough_ratio:.1f}, coverage bias "
            f"{r.coverage_bias():.2f}"
        ],
    ),
    Experiment("segments", segments.segment_users, summary=lambda r: [
        f"  {profile.segment:<10} n={profile.n_users:<6} "
        f"median peak {profile.median_peak_mbps:.3f} Mbps  "
        f"mean util {100 * profile.mean_peak_utilization:.1f}%"
        for profile in r.profiles
    ]),
    Experiment(
        "upload",
        lambda dasu: (
            upload.upload_asymmetry(dasu), upload.seeding_experiment(dasu)
        ),
        summary=lambda r: [
            f"  median up/down ratio {r[0].median_ratio:.3f} "
            f"(n={r[0].n_users})",
            format_experiment_row("BT households upload more", None, r[1]),
        ],
    ),
    # Sweep-only (the barometer has ``repro iqb``). The label stays fixed
    # across IQB configs, so an iqb_config axis lines up in one row.
    Experiment("iqb", iqb.iqb_experiment, analyze=False, rows=lambda r: [
        ("top vs bottom tercile", None, r.experiment.result)
    ]),
)

#: Every experiment by key, in declaration order.
REGISTRY: dict[str, Experiment] = {entry.key: entry for entry in _ENTRIES}

#: The experiments ``repro analyze`` offers, in declaration order.
ANALYZE_EXPERIMENTS: tuple[str, ...] = tuple(
    entry.key for entry in _ENTRIES if entry.analyze
)
