"""The assembled reproduction report."""

import pytest

from repro.analysis.paper_report import full_report
from repro.exceptions import AnalysisError


class TestFullReport:
    def test_contains_every_section(self, small_world):
        text = full_report(
            small_world.dasu.users,
            small_world.fcc.users,
            small_world.survey,
        )
        for marker in (
            "Figure 1",
            "Section 3",
            "Section 4",
            "Section 5",
            "Section 6",
            "Section 7",
            "Table 1",
            "Table 5",
            "Fig. 11",
        ):
            assert marker in text

    def test_paper_values_present(self, small_world):
        text = full_report(small_world.dasu.users)
        assert "66.8%" in text  # Table 1 average, paper value
        assert "70.3%" in text

    def test_without_optional_datasets(self, small_world):
        text = full_report(small_world.dasu.users)
        assert "Table 4" not in text  # needs the survey
        assert "Table 1" in text

    def test_sections_degrade_gracefully(self, small_world):
        # A US-only subset cannot run the India analyses; the report
        # must mark the section as skipped instead of crashing.
        us_only = [u for u in small_world.dasu.users if u.country == "US"]
        sections = full_report(us_only).split("\n" + "=" * 72 + "\n")[1:]
        assert any("skipped" in s for s in sections)
        assert any("Table 1" in s for s in sections)

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError):
            full_report([])
