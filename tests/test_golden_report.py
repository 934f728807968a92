"""Golden snapshot of the full report.

The parallel/cached build refactor must not change a single analysis
number, so the complete ``full_report`` text for a small fixed-seed
world is pinned byte-for-byte under ``tests/golden/``, and so is every
``repro analyze`` experiment's stdout on the same world written as a
data directory. Any behavioral drift in the generative substrate, the
measurement clients, the analysis toolkit, or the CLI's rendering
fails these tests loudly.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_report.py --regen-golden

then review the golden diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.paper_report import full_report
from repro.cli import EXPERIMENTS, main
from repro.datasets import WorldConfig, build_world
from repro.datasets.io import write_survey_csv, write_users_csv

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REPORT = GOLDEN_DIR / "full_report_seed11.txt"
GOLDEN_ANALYZE = GOLDEN_DIR / "analyze_seed11.txt"

#: Small enough to build in ~1 s, large enough that every report section
#: has data. Changing this config invalidates the snapshot — regenerate.
GOLDEN_CONFIG = WorldConfig(
    seed=11, n_dasu_users=400, n_fcc_users=80, days_per_year=1.0
)


@pytest.fixture(scope="module")
def golden_world():
    return build_world(GOLDEN_CONFIG)


@pytest.fixture(scope="module")
def report_text(golden_world) -> str:
    world = golden_world
    return full_report(world.dasu.users, world.fcc.users, world.survey)


def test_full_report_matches_golden(report_text, request):
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_REPORT.write_text(report_text + "\n")
        pytest.skip(f"regenerated {GOLDEN_REPORT}")
    assert GOLDEN_REPORT.exists(), (
        "golden snapshot missing — regenerate with "
        "`python -m pytest tests/test_golden_report.py --regen-golden`"
    )
    expected = GOLDEN_REPORT.read_text()
    assert report_text + "\n" == expected, (
        "full_report drifted from the golden snapshot; if the change is "
        "intentional, regenerate with --regen-golden and review the diff"
    )


def test_report_is_parallel_invariant(report_text):
    """The pinned report is also what a 2-worker build produces."""
    world = build_world(GOLDEN_CONFIG, jobs=2, chunk_size=17)
    parallel_text = full_report(
        world.dasu.users, world.fcc.users, world.survey
    )
    assert parallel_text == report_text


def test_analyze_matches_golden(golden_world, tmp_path, capsys, request):
    """Every ``repro analyze`` experiment's stdout, in ``EXPERIMENTS``
    order, on the golden world written as a data directory."""
    write_users_csv(golden_world.all_users, tmp_path / "users.csv")
    write_survey_csv(golden_world.survey, tmp_path / "survey.csv")
    outputs = []
    for experiment in EXPERIMENTS:
        rc = main(
            ["analyze", "--data", str(tmp_path), "--experiment", experiment]
        )
        assert rc == 0, experiment
        outputs.append(capsys.readouterr().out)
    text = "".join(outputs)
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_ANALYZE.write_text(text)
        pytest.skip(f"regenerated {GOLDEN_ANALYZE}")
    assert GOLDEN_ANALYZE.exists(), (
        "golden snapshot missing — regenerate with "
        "`python -m pytest tests/test_golden_report.py --regen-golden`"
    )
    assert text == GOLDEN_ANALYZE.read_text(), (
        "repro analyze drifted from the golden snapshot; if the change is "
        "intentional, regenerate with --regen-golden and review the diff"
    )
