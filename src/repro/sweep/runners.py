"""The experiments a sweep can evaluate in every cell.

Each runner takes a built world's Dasu users, runs one experiment of
the registry (:mod:`repro.analysis.registry`) and returns its labeled
rows as :class:`VerdictRow` records — the verdict (significant *and*
practically important, the paper's bar) plus the raw "% H holds" behind
it. :data:`_RUNNERS` is an ordered mapping so a sweep's report always
lists experiments in the paper's table order.

Rows with zero matched pairs are dropped: they carry no verdict
evidence and would only add ``NaN`` noise to the stability matrix.
Runners raise :class:`~repro.exceptions.AnalysisError` when a world is
too small for an experiment at all; the engine records such cells as
having skipped that experiment rather than failing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis.registry import REGISTRY
from ..datasets.records import UserRecord
from ..exceptions import SweepError

__all__ = ["SWEEP_EXPERIMENTS", "VerdictRow", "run_experiment"]


@dataclass(frozen=True)
class VerdictRow:
    """One experiment row's verdict in one sweep cell."""

    experiment: str
    row: str
    fraction_holds: float
    n_pairs: int
    p_value: float
    significant: bool
    rejects_null: bool

    def to_payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "row": self.row,
            "fraction_holds": round(self.fraction_holds, 12),
            "n_pairs": self.n_pairs,
            "p_value": round(self.p_value, 12),
            "significant": self.significant,
            "rejects_null": self.rejects_null,
        }


def _verdicts(key: str, result) -> list[VerdictRow]:
    """Registry entry ``key``'s rows of ``result`` as verdicts."""
    return [
        VerdictRow(
            experiment=key,
            row=label,
            fraction_holds=float(experiment.fraction_holds),
            n_pairs=int(experiment.n_pairs),
            p_value=float(experiment.p_value),
            significant=bool(experiment.statistically_significant),
            rejects_null=bool(experiment.rejects_null),
        )
        for label, _, experiment in REGISTRY[key].rows(result)
        if experiment.n_pairs > 0
    ]


def _run(key: str, users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _verdicts(key, REGISTRY[key].run(users, None, None))


# One module-level runner per experiment, so each can be timed on its own.


def _run_table1(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table1", users)


def _run_table2(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table2", users)


def _run_table3(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table3", users)


def _run_table6(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table6", users)


def _run_table7(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table7", users)


def _run_table8(users: Sequence[UserRecord]) -> list[VerdictRow]:
    return _run("table8", users)


def _run_iqb(
    users: Sequence[UserRecord], iqb_config=None
) -> list[VerdictRow]:
    # The IQB config is a sweep axis, passed to the entry's analysis.
    return _verdicts("iqb", REGISTRY["iqb"].analysis(users, iqb_config))


_RUNNERS: dict[str, Callable[..., list[VerdictRow]]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table6": _run_table6,
    "table7": _run_table7,
    "table8": _run_table8,
    "iqb": _run_iqb,
}

#: Every sweep-runnable experiment, in the paper's table order.
SWEEP_EXPERIMENTS: tuple[str, ...] = tuple(_RUNNERS)


def run_experiment(
    key: str, users: Sequence[UserRecord], iqb_config=None
) -> list[VerdictRow]:
    """Run one registered experiment over a cell's Dasu users.

    ``iqb_config`` (a preset name, config payload, or ``None``) only
    affects the ``iqb`` experiment — the paper-table runners ignore it.
    Raises :class:`~repro.exceptions.AnalysisError` (bubbled from the
    analysis layer) when the world cannot support the experiment.
    """
    try:
        runner = _RUNNERS[key]
    except KeyError:
        known = ", ".join(SWEEP_EXPERIMENTS)
        raise SweepError(
            f"unknown sweep experiment {key!r} (expected one of: {known})"
        ) from None
    if key == "iqb":
        return runner(users, iqb_config)
    return runner(users)
