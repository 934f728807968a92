"""The complete reproduction report.

Runs every table and figure of the paper's evaluation over a set of
datasets and renders one plain-text report with the paper's reported
values alongside the measured ones. This is what the CLI's ``report``
command and the benchmark summaries are built from.

The report is assembled from independent **fragments** — one natural
experiment, table, or binned-curve panel each — declared section by
section in :data:`_SECTIONS`. :func:`render_fragment` renders one
fragment and :func:`assemble_report` joins rendered fragments into the
report text; both :func:`full_report` and the fragment-level DAG
(:func:`repro.dag.pipelines.fragment_report_spec`) go through them.

:func:`full_report` fans the fragments out through
:func:`repro.core.executor.run_sharded` exactly like the world builder's
shards: ``jobs=1`` renders them serially in-process, ``jobs=N`` over a
process pool, and either way the report text is byte-identical. If any
fragment of a section raises :class:`~repro.exceptions.AnalysisError`,
the section collapses to ``[section skipped: ...]`` citing the first
failing fragment in section order.

Each fragment runs under a ``report/<key>`` run-ledger span (see
:mod:`repro.obs`); the CLI's ``--profile`` flag renders those spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.executor import run_sharded
from ..datasets.records import UserRecord
from ..exceptions import AnalysisError
from ..market.survey import PlanSurvey
from ..obs import ledger as obs
from ..obs.ledger import RunLedger
from . import capacity, iqb, price, upgrade_cost
from .price import Table4Result
from .registry import REGISTRY, table6_tag
from .report import format_curve, format_experiment_row
from .upgrade_cost import Table5Result

__all__ = [
    "assemble_report",
    "fragment_inputs",
    "fragment_keys",
    "full_report",
    "render_fragment",
]


@dataclass(frozen=True)
class _Fragment:
    """One report fragment: its key, its renderer, and the world slices
    it reads (``"dasu"``, ``"fcc"``, ``"survey"``); left empty, those of
    the registry entry with the same key."""

    key: str
    render: Callable
    inputs: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Fragment builders. Each returns one rendered text block (or None when its
# optional dataset is absent) for a slice of a section, and must not depend
# on any other fragment having run. Fragments keyed like a registry entry
# run that entry, all but the iqb barometer.
# ---------------------------------------------------------------------------


def _fragment_fig1(dasu, fcc, survey) -> str:
    result = REGISTRY["fig1"].run(dasu, fcc, survey)
    lines = [f"Figure 1 — connection characterization (n={result.n_users})"]
    for label, paper, measured in result.summary_rows():
        lines.append(
            f"  {label:<40} paper {paper:>8.3f}   measured {measured:>8.3f}"
        )
    return "\n".join(lines)


def _fragment_fig2(dasu, fcc, survey) -> str:
    fig2 = REGISTRY["fig2"].run(dasu, fcc, survey)
    lines = [format_curve("  Fig. 2d: peak demand, no BT", fig2.peak_no_bt)]
    lines.append(
        f"  min panel correlation: paper >= 0.870, measured "
        f"{fig2.min_correlation:.3f}"
    )
    return "\n".join(lines)


def _fragment_fig3(dasu, fcc, survey) -> str | None:
    if not fcc:
        return None
    fig3 = capacity.figure3(dasu, fcc)
    return (
        f"  Fig. 3: Dasu/FCC mean ratio {fig3.mean_ratio_dasu_over_fcc:.2f}"
        f", peak ratio {fig3.peak_ratio_dasu_over_fcc:.2f}"
    )


def _table_fragment(
    key: str, header: str = "", label_prefix: str = ""
) -> _Fragment:
    """Registry table ``key`` as a fragment: ``header`` (formatted with
    the result as ``{0}``) over the entry's labeled rows."""

    def build(dasu, fcc, survey) -> str:
        entry = REGISTRY[key]
        result = entry.run(dasu, fcc, survey)
        lines = [header.format(result)] if header else []
        for label, paper, experiment in entry.rows(result):
            lines.append(
                "  "
                + format_experiment_row(label_prefix + label, paper, experiment)
            )
        return "\n".join(lines)

    return _Fragment(key, build)


def _fragment_fig4(dasu, fcc, survey) -> str:
    fig4 = REGISTRY["fig4"].run(dasu, fcc, survey)
    return (
        f"  Fig. 4: median mean usage x{fig4.mean_ratio_at_median:.1f} "
        f"(paper x2.0), median peak x{fig4.peak_ratio_at_median:.1f} "
        f"(paper x3.3) on the faster network"
    )


def _fragment_fig6(dasu, fcc, survey) -> str:
    result = REGISTRY["fig6"].run(dasu, fcc, survey)
    lines = ["Section 4 — longitudinal trends (Fig. 6)"]
    lines.append(
        "  "
        + format_experiment_row(
            "2011 vs 2013 (pooled)", None, result.cross_year_experiment
        )
    )
    lines.append(
        f"  classes rejecting the no-change null: "
        f"{len(result.classes_rejecting_null())} of "
        f"{len(result.per_class_experiments)}"
    )
    lines.append(
        f"  max class drift |log ratio|: {result.max_class_drift():.3f}"
    )
    return "\n".join(lines)


def _fragment_table4(dasu, fcc, survey) -> str | None:
    t4 = price.table4(dasu, survey)
    lines = ["  Table 4 (paper/measured):"]
    for row in t4.rows:
        paper = Table4Result.PAPER_VALUES[row.country]
        lines.append(
            f"    {row.country:<13} median {paper[1]:>6.2f}/"
            f"{row.median_capacity_mbps:<8.2f} income-share "
            f"{100 * paper[5]:>4.1f}%/"
            f"{100 * row.cost_share_of_monthly_income:.1f}%"
        )
    return "\n".join(lines)


def _fragment_fig7(dasu, fcc, survey) -> str:
    fig7 = REGISTRY["fig7"].run(dasu, fcc, survey)
    lines = [
        "  Fig. 7: utilization order reverses capacity order: "
        f"{fig7.utilization_order_reverses_capacity_order()}"
    ]
    for entry in fig7.countries:
        lines.append(
            f"    {entry.country:<13} capacity {entry.median_capacity_mbps:>7.2f}"
            f" Mbps, peak utilization {100 * entry.mean_peak_utilization:>5.1f}%"
        )
    return "\n".join(lines)


def _fragment_fig10(dasu, fcc, survey) -> str | None:
    fig10 = REGISTRY["fig10"].run(dasu, fcc, survey)
    strong, moderate = upgrade_cost.correlation_summary(survey)
    return (
        f"  Fig. 10: {fig10.n_countries} qualifying markets; "
        f"correlation strong {strong:.2f} (paper 0.66), "
        f"moderate {moderate:.2f} (paper 0.81)"
    )


def _fragment_table5(dasu, fcc, survey) -> str | None:
    t5 = REGISTRY["table5"].run(dasu, fcc, survey)
    lines = ["  Table 5 (paper/measured, % above $1/$5/$10):"]
    for row in t5.rows:
        if row.n_countries == 0:
            continue
        paper = Table5Result.PAPER_VALUES[row.region]
        lines.append(
            f"    {row.region:<27} "
            f"{100 * paper[0]:>3.0f}/{100 * row.share_above_1:<4.0f} "
            f"{100 * paper[1]:>3.0f}/{100 * row.share_above_5:<4.0f} "
            f"{100 * paper[2]:>3.0f}/{100 * row.share_above_10:<4.0f}"
        )
    return "\n".join(lines)


def _table6_fragment(key: str, include_bt: bool) -> _Fragment:
    """One panel of the registry's table6 experiment, untagged rows."""

    def build(dasu, fcc, survey) -> str:
        t6 = upgrade_cost.table6(dasu, include_bt=include_bt)
        lines = [f"  Table 6 ({table6_tag(include_bt)}):"]
        for label, paper, result in t6.rows():
            lines.append("  " + format_experiment_row(label, paper, result))
        return "\n".join(lines)

    return _Fragment(key, build, REGISTRY["table6"].inputs)


def _fragment_fig11(dasu, fcc, survey) -> str:
    fig11 = REGISTRY["fig11"].run(dasu, fcc, survey)
    return (
        f"  Fig. 11: India median latency {fig11.india_median_ndt_ms:.0f} ms "
        f"vs rest {fig11.other_median_ndt_ms:.0f} ms; India demands less "
        f"than matched US users {100 * fig11.india_lower_demand_share:.0f}% "
        f"of the time (paper 62%)"
    )


def _fragment_fig12(dasu, fcc, survey) -> str:
    fig12 = REGISTRY["fig12"].run(dasu, fcc, survey)
    return (
        f"  Fig. 12: median loss India {fig12.india_median_loss_pct:.2f}% "
        f"vs rest {fig12.other_median_loss_pct:.3f}%"
    )


def _fragment_iqb(dasu, fcc, survey) -> str:
    return iqb.format_iqb_report(dasu, fcc)


#: The paper's sections, in output order: an optional static header plus
#: the fragments whose blocks make up the section body. Each fragment's
#: ``inputs`` let the fragment-level DAG (see
#: :func:`repro.dag.pipelines.fragment_report_spec`) key it on only the
#: content hashes it depends on, so appending households recomputes the
#: Dasu-driven fragments but leaves survey-only ones (fig10, table5)
#: cached.
_SECTIONS: tuple[tuple[str | None, tuple[_Fragment, ...]], ...] = (
    (None, (_Fragment("fig1", _fragment_fig1),)),
    (
        "Section 3 — impact of capacity",
        (
            _Fragment("fig2", _fragment_fig2),
            _Fragment("fig3", _fragment_fig3, ("dasu", "fcc")),
            _table_fragment(
                "table1", "  Table 1 ({0.n_observations} slow/fast pairs):"
            ),
            _Fragment("fig4", _fragment_fig4),
            _table_fragment("table2", "  Table 2 (Dasu):"),
        ),
    ),
    (None, (_Fragment("fig6", _fragment_fig6),)),
    (
        "Section 5 — price of broadband access",
        (
            _table_fragment("table3"),
            _Fragment("table4", _fragment_table4, ("dasu", "survey")),
            _Fragment("fig7", _fragment_fig7),
        ),
    ),
    (
        "Section 6 — cost of increasing capacity",
        (
            _Fragment("fig10", _fragment_fig10),
            _Fragment("table5", _fragment_table5),
            _table6_fragment("table6_bt", include_bt=True),
            _table6_fragment("table6_nobt", include_bt=False),
        ),
    ),
    (
        "Section 7 — connection quality",
        (
            _table_fragment(
                "table7", "  Table 7 (latency):", "control (512,2048] "
            ),
            _Fragment("fig11", _fragment_fig11),
            _table_fragment("table8", "  Table 8 (packet loss):"),
            _Fragment("fig12", _fragment_fig12),
        ),
    ),
    (
        "Extension — internet quality barometer",
        # The barometer block scores the FCC panel too; the registry's
        # iqb entry is the Dasu-only IQB-vs-demand experiment.
        (_Fragment("iqb", _fragment_iqb, ("dasu", "fcc")),),
    ),
)

_FRAGMENTS: dict[str, _Fragment] = {
    fragment.key: fragment
    for _, fragments in _SECTIONS
    for fragment in fragments
}


def fragment_inputs(key: str) -> tuple[str, ...]:
    """The slice names fragment ``key`` reads."""
    return _FRAGMENTS[key].inputs or REGISTRY[key].inputs


def fragment_keys() -> tuple[str, ...]:
    """Every fragment key, in output order."""
    return tuple(_FRAGMENTS)


def render_fragment(
    key: str,
    dasu: Sequence[UserRecord] = (),
    fcc: Sequence[UserRecord] | None = None,
    survey: PlanSurvey | None = None,
) -> tuple[str | None, str | None]:
    """Render one fragment as ``(text, error)``.

    An :class:`~repro.exceptions.AnalysisError` becomes the ``error``
    message its section is skipped with; ``None`` text means the
    fragment's optional dataset (e.g. the survey) is absent. Rendering
    records no timing, so a DAG fragment stage's artifact holds no
    wall-clock state and an unchanged input hashes to an unchanged
    output.
    """
    if survey is None and "survey" in fragment_inputs(key):
        return None, None
    render = _FRAGMENTS[key].render
    try:
        return render(dasu, fcc, survey), None
    except AnalysisError as exc:
        return None, str(exc)


def _assemble_section(
    header: str | None, rendered: Sequence[tuple[str | None, str | None]]
) -> str:
    """Join fragment blocks under the section header.

    The first failed fragment (in section order) skips the whole
    section; fragments that rendered nothing (``None`` for an absent
    dataset, ``""`` for a table with zero rows) add no line.
    """
    for _, error in rendered:
        if error is not None:
            return f"[section skipped: {error}]"
    lines = [] if header is None else [header]
    lines.extend(text for text, _ in rendered if text)
    return "\n".join(lines)


def assemble_report(
    fragments: dict[str, tuple[str | None, str | None]],
    *,
    n_dasu: int,
    n_fcc: int = 0,
    n_plans: int | None = None,
) -> str:
    """Assemble the full report text from pre-rendered fragments.

    ``fragments`` maps every fragment key to its ``(text, error)`` pair
    (:func:`render_fragment`'s return). This is the only assembler:
    :func:`full_report` and the fragment-level DAG both end here, so a
    served report is indistinguishable from a cold in-process render.
    """
    if n_dasu == 0:
        raise AnalysisError("a report needs at least the Dasu dataset")
    missing = set(_FRAGMENTS) - set(fragments)
    if missing:
        raise AnalysisError(
            f"missing fragments: {', '.join(sorted(missing))}"
        )
    header = (
        "Reproduction report — Bischof, Bustamante & Stanojevic, "
        "IMC 2014\n"
        f"datasets: {n_dasu} Dasu users"
        + (f", {n_fcc} FCC users" if n_fcc else "")
        + (f", {n_plans} plans" if n_plans is not None else "")
    )
    blocks = [header]
    for section_header, section in _SECTIONS:
        blocks.append("=" * 72)
        blocks.append(
            _assemble_section(
                section_header, [fragments[f.key] for f in section]
            )
        )
    return "\n".join(blocks)


# Worker-process context: the datasets are shipped once per worker via the
# pool initializer instead of once per task, so a fragment task is just its
# key. With jobs=1, run_sharded invokes the initializer in-process and the
# serial path exercises exactly the same code.
_CTX: tuple | None = None


def _init_fragment_worker(dasu, fcc, survey) -> None:
    global _CTX
    _CTX = (dasu, fcc, survey)


def _run_fragment(key: str) -> tuple[str | None, str | None]:
    assert _CTX is not None, "fragment worker used before initialization"
    with obs.span(f"report/{key}"):
        text, error = render_fragment(key, *_CTX)
    obs.count("report.fragments.run")
    if error is not None:
        obs.count("report.fragments.failed")
    elif not text:
        obs.count("report.fragments.empty")
    return text, error


def full_report(
    dasu: Sequence[UserRecord],
    fcc: Sequence[UserRecord] | None = None,
    survey: PlanSurvey | None = None,
    *,
    jobs: int | None = 1,
    ledger: RunLedger | None = None,
) -> str:
    """The complete paper-vs-measured report as one string.

    Sections whose data are insufficient (e.g. no Indian users) are
    reported as skipped rather than aborting the whole report. ``jobs``
    fans the fragments out over a process pool (``None`` = one worker
    per CPU); the text is byte-identical for any value. ``ledger``
    accumulates the analysis stage's run-ledger events (``report/<key>``
    spans, experiment and matching counters), merged in fragment order
    for any worker count.
    """
    if not dasu:
        raise AnalysisError("a report needs at least the Dasu dataset")
    keys = fragment_keys()
    rendered = run_sharded(
        _run_fragment,
        keys,
        jobs=jobs,
        initializer=_init_fragment_worker,
        initargs=(dasu, fcc, survey),
        ledger=ledger,
    )
    return assemble_report(
        dict(zip(keys, rendered)),
        n_dasu=len(dasu),
        n_fcc=len(fcc) if fcc else 0,
        n_plans=None if survey is None else survey.n_plans,
    )
