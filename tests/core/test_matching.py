"""Nearest-neighbor matching with a caliper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matching
from repro.exceptions import MatchingError

from .matching_oracle import caliper_compatible, dense_greedy_index_pairs


def compatible(a, b, caliper=matching.DEFAULT_CALIPER):
    """Whether the matcher pairs a one-unit control pool holding ``a``
    with a one-unit treatment pool holding ``b``; the scalar oracle must
    agree."""
    summary = matching.match_pairs_arrays(
        [np.array([a])], [np.array([b])], caliper
    )
    paired = summary.n_matched == 1
    assert paired == caliper_compatible(a, b, caliper)
    return paired


class TestCaliperCompatible:
    """The paper's caliper, as the matcher applies it to one pair."""

    def test_within_25_percent(self):
        # The paper's example: 50 ms and 62 ms are similar.
        assert compatible(50.0, 62.0)

    def test_beyond_25_percent(self):
        assert not compatible(50.0, 63.0)

    def test_symmetric(self):
        assert compatible(62.0, 50.0)

    def test_equal_values(self):
        assert compatible(3.0, 3.0)

    def test_both_zero_compatible(self):
        assert compatible(0.0, 0.0)

    def test_zero_vs_large_incompatible(self):
        assert not compatible(0.0, 1.0)

    def test_tiny_values_treated_as_zero(self):
        assert compatible(1e-9, 1e-8)

    def test_custom_caliper(self):
        assert compatible(10.0, 14.0, caliper=0.5)
        assert not compatible(10.0, 16.0, caliper=0.5)

    def test_invalid_caliper_rejected(self):
        with pytest.raises(MatchingError):
            compatible(1.0, 1.0, caliper=0.0)

    def test_negative_value_rejected(self):
        with pytest.raises(MatchingError):
            compatible(-1.0, 1.0)

    def test_nan_rejected(self):
        # NaN marks a missing covariate and must be excluded *before*
        # matching; silently falling through the comparisons would make
        # every NaN pair "incompatible" without ever surfacing the bug.
        for a, b in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(MatchingError):
                compatible(a, b)


class TestFloorConstants:
    """The zero floors are pinned: analysis code imports them from here."""

    def test_loss_floor_single_source(self):
        from repro.analysis.common import CONFOUNDER_EXTRACTORS

        record = type("U", (), {"loss_fraction": 0.0})()
        assert CONFOUNDER_EXTRACTORS["loss"](record) == matching.LOSS_MATCH_FLOOR

    def test_loss_floor_dominates_zero_floor(self):
        # The matcher floors every confounder at ZERO_FLOOR as a last
        # resort; a loss floor below it would be silently overridden.
        assert matching.LOSS_MATCH_FLOOR >= matching.ZERO_FLOOR

    def test_caliper_behavior_at_loss_floor(self):
        # Two loss-free lines floored at LOSS_MATCH_FLOOR are similar;
        # a floored line vs. 1% loss is not.
        floor = matching.LOSS_MATCH_FLOOR
        assert compatible(floor, floor)
        assert compatible(floor, floor * 1.25)
        assert not compatible(floor, floor * 1.26)
        assert not compatible(floor, 0.01)

    def test_caliper_behavior_at_zero_floor(self):
        # Values at or below ZERO_FLOOR collapse to "zero": mutually
        # compatible, incompatible with anything materially larger.
        floor = matching.ZERO_FLOOR
        assert compatible(floor, floor / 10.0)
        assert compatible(0.0, floor)
        assert compatible(floor, floor * 1.25)
        assert not compatible(floor, floor * 1.26)

    def test_pinned_values(self):
        # Regression pin: changing either floor changes which users the
        # paper's experiments can pair, so it must be a conscious edit.
        assert matching.LOSS_MATCH_FLOOR == 1e-4
        assert matching.ZERO_FLOOR == 1e-6


def by_value(unit):
    return unit["v"]


def by_weight(unit):
    return unit["w"]


class TestMatchPairs:
    def test_exact_partners_matched(self):
        control = [{"v": 1.0}, {"v": 10.0}]
        treatment = [{"v": 10.0}, {"v": 1.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 2
        for pair in summary.pairs:
            assert pair.control["v"] == pair.treatment["v"]

    def test_caliper_blocks_distant_pairs(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 2.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 0

    def test_one_to_one_without_replacement(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 1.0}, {"v": 1.01}, {"v": 1.02}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 1

    def test_greedy_prefers_closest(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 1.2}, {"v": 1.01}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.pairs[0].treatment["v"] == 1.01

    def test_multiple_confounders_all_must_match(self):
        control = [{"v": 1.0, "w": 1.0}]
        treatment = [{"v": 1.0, "w": 5.0}, {"v": 1.1, "w": 1.1}]
        summary = matching.match_pairs(
            control, treatment, [by_value, by_weight]
        )
        assert summary.n_matched == 1
        assert summary.pairs[0].treatment["w"] == 1.1

    def test_empty_pools(self):
        assert matching.match_pairs([], [{"v": 1.0}], [by_value]).n_matched == 0
        assert matching.match_pairs([{"v": 1.0}], [], [by_value]).n_matched == 0

    def test_max_pairs_cap(self):
        control = [{"v": 1.0 + i * 1e-4} for i in range(10)]
        treatment = [{"v": 1.0 + i * 1e-4} for i in range(10)]
        summary = matching.match_pairs(
            control, treatment, [by_value], max_pairs=3
        )
        assert summary.n_matched == 3

    def test_deterministic(self):
        control = [{"v": 1.0 + 0.01 * i} for i in range(20)]
        treatment = [{"v": 1.0 + 0.011 * i} for i in range(20)]
        a = matching.match_pairs(control, treatment, [by_value])
        b = matching.match_pairs(control, treatment, [by_value])
        assert [
            (p.control["v"], p.treatment["v"]) for p in a.pairs
        ] == [(p.control["v"], p.treatment["v"]) for p in b.pairs]

    def test_all_pairs_respect_caliper(self):
        control = [{"v": float(i)} for i in range(1, 50)]
        treatment = [{"v": float(i) * 1.2} for i in range(1, 50)]
        summary = matching.match_pairs(control, treatment, [by_value])
        for pair in summary.pairs:
            assert caliper_compatible(pair.control["v"], pair.treatment["v"])

    def test_no_confounders_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs([{"v": 1}], [{"v": 1}], [])

    @pytest.mark.parametrize("caliper", [0.0, -0.5, -1.0])
    def test_non_positive_caliper_rejected(self, caliper):
        # Unchecked, zero would match exact ties only, and a negative
        # caliper would match nothing silently or fail inside math.log.
        with pytest.raises(MatchingError, match="caliper must be positive"):
            matching.match_pairs(
                [{"v": 1.0}], [{"v": 1.0}], [by_value], caliper=caliper
            )

    def test_nan_confounder_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs(
                [{"v": float("nan")}], [{"v": 1.0}], [by_value]
            )

    def test_distance_is_log_scale(self):
        # 10 vs 12 (ratio 1.2) is closer than 10 vs 8 (ratio 1.25).
        control = [{"v": 10.0}]
        treatment = [{"v": 8.1}, {"v": 12.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.pairs[0].treatment["v"] == 12.0

    def test_chunked_path_equivalent(self):
        # Large-ish pools exercise the chunked candidate enumeration.
        control = [{"v": 1.0 + (i % 37) * 0.001} for i in range(300)]
        treatment = [{"v": 1.0 + (i % 41) * 0.001} for i in range(300)]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 300


def _five_confounder_pools(n=40):
    keys = ("a", "b", "c", "d", "e")
    control = [
        {k: 1.0 + ((i * 7 + j) % 11) * 0.01 for j, k in enumerate(keys)}
        for i in range(n)
    ]
    treatment = [
        {k: 1.0 + ((i * 5 + j) % 13) * 0.01 for j, k in enumerate(keys)}
        for i in range(n)
    ]
    extractors = [lambda u, k=k: u[k] for k in keys]
    return control, treatment, extractors


class TestCandidateChunkRows:
    def test_block_respects_cell_budget_with_five_confounders(self):
        # The candidate block materializes chunk * treatment * confounder
        # float64 cells; the heuristic must bound that product, not just
        # the first two dimensions.
        n_treatment, n_confounders = 3_000, 5
        chunk = matching.candidate_chunk_rows(n_treatment, n_confounders)
        assert chunk >= 1
        assert (
            chunk * n_treatment * n_confounders
            <= matching.CANDIDATE_CELL_BUDGET
        )

    def test_bound_holds_across_pool_shapes(self):
        for n_treatment in (1, 100, 10_000, 1_000_000):
            for n_confounders in (1, 2, 5):
                chunk = matching.candidate_chunk_rows(n_treatment, n_confounders)
                if chunk > 1:
                    assert (
                        chunk * n_treatment * n_confounders
                        <= matching.CANDIDATE_CELL_BUDGET
                    )

    def test_scales_inversely_with_confounder_count(self):
        assert matching.candidate_chunk_rows(1_000, 5) == (
            matching.CANDIDATE_CELL_BUDGET // (1_000 * 5)
        )

    def test_floor_of_one_row(self):
        assert matching.candidate_chunk_rows(10**9, 5) == 1

    def test_chunked_five_confounder_matching_equivalent(self, monkeypatch):
        control, treatment, extractors = _five_confounder_pools()
        baseline = matching.match_pairs(control, treatment, extractors)
        monkeypatch.setattr(
            matching, "candidate_chunk_rows", lambda *args, **kwargs: 3
        )
        chunked = matching.match_pairs(control, treatment, extractors)
        assert [
            (p.control, p.treatment, p.distance) for p in chunked.pairs
        ] == [(p.control, p.treatment, p.distance) for p in baseline.pairs]


class TestNonFiniteConfounders:
    """Non-finite covariates must be rejected, never silently matched.

    The original guard caught only NaN: two users whose extractor
    produced ``inf`` satisfied ``inf <= 1.25 * inf`` and were "matched"
    on a meaningless covariate. Every non-finite value now raises
    :class:`MatchingError` from :func:`match_pairs` /
    :func:`match_pairs_arrays` (and from the scalar oracle).
    """

    NON_FINITE = (math.inf, -math.inf, math.nan)

    def test_caliper_compatible_rejects_every_non_finite_pair(self):
        for bad in self.NON_FINITE:
            for a, b in ((bad, 1.0), (1.0, bad), (bad, bad)):
                with pytest.raises(MatchingError, match="invalid value"):
                    compatible(a, b)
                with pytest.raises(MatchingError, match="finite"):
                    caliper_compatible(a, b)

    def test_two_infinities_never_compatible(self):
        # The exact regression: inf <= 1.25 * inf is True, so the
        # ratio test alone would call two infinite covariates similar.
        with pytest.raises(MatchingError, match="invalid value"):
            compatible(math.inf, math.inf)
        with pytest.raises(MatchingError, match="finite"):
            caliper_compatible(math.inf, math.inf)

    def test_match_pairs_rejects_inf_confounder(self):
        for bad in self.NON_FINITE:
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs(
                    [{"v": bad}], [{"v": 1.0}], [by_value]
                )
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs(
                    [{"v": 1.0}], [{"v": bad}], [by_value]
                )

    def test_match_pairs_rejects_mixed_finite_and_infinite_pool(self):
        control = [{"v": 1.0}, {"v": math.inf}, {"v": 2.0}]
        with pytest.raises(MatchingError, match="invalid value"):
            matching.match_pairs(control, [{"v": 1.0}], [by_value])

    def test_match_pairs_arrays_rejects_non_finite(self):
        import numpy as np

        for bad in self.NON_FINITE:
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs_arrays(
                    [np.array([1.0, bad])], [np.array([1.0, 2.0])]
                )


class TestMatchPairsArrays:
    """The columnar matcher is the object matcher on extracted columns."""

    def _pools(self, n=60):
        control, treatment, extractors = _five_confounder_pools(n)
        import numpy as np

        control_cols = [
            np.array([e(u) for u in control]) for e in extractors
        ]
        treatment_cols = [
            np.array([e(u) for u in treatment]) for e in extractors
        ]
        return control, treatment, extractors, control_cols, treatment_cols

    def test_identical_pairs_and_distances(self):
        control, treatment, extractors, ccols, tcols = self._pools()
        by_object = matching.match_pairs(control, treatment, extractors)
        by_column = matching.match_pairs_arrays(ccols, tcols)
        # Recover indices by identity: equal-valued units recur in the
        # pools, so list.index() would alias distinct members.
        control_idx = {id(u): i for i, u in enumerate(control)}
        treatment_idx = {id(u): i for i, u in enumerate(treatment)}
        assert [
            (
                control_idx[id(p.control)],
                treatment_idx[id(p.treatment)],
                p.distance,
            )
            for p in by_object.pairs
        ] == [(p.control, p.treatment, p.distance) for p in by_column.pairs]
        assert by_object.n_control == by_column.n_control
        assert by_object.n_treatment == by_column.n_treatment

    def test_pairs_are_indices(self):
        import numpy as np

        summary = matching.match_pairs_arrays(
            [np.array([1.0, 50.0])], [np.array([50.0, 1.0])]
        )
        assert summary.n_matched == 2
        assert {(p.control, p.treatment) for p in summary.pairs} == {
            (0, 1), (1, 0)
        }

    def test_empty_pool(self):
        import numpy as np

        summary = matching.match_pairs_arrays(
            [np.array([])], [np.array([1.0])]
        )
        assert summary.n_matched == 0

    def test_mismatched_lengths_rejected(self):
        import numpy as np

        with pytest.raises(MatchingError):
            matching.match_pairs_arrays(
                [np.array([1.0]), np.array([1.0, 2.0])],
                [np.array([1.0]), np.array([1.0])],
            )

    def test_no_confounders_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs_arrays([], [])


class TestMaxPairsValidation:
    """``max_pairs`` is ``None`` or an integer >= 0, checked up front
    like the caliper: a negative cap used to return no pairs silently,
    and a fractional one was accepted."""

    POOL = [np.array([1.0, 2.0, 3.0])]

    @pytest.mark.parametrize("bad", [-1, -5, 2.5, 1.0, "3", True])
    def test_invalid_max_pairs_rejected(self, bad):
        with pytest.raises(MatchingError, match="max_pairs"):
            matching.match_pairs_arrays(self.POOL, self.POOL, max_pairs=bad)
        with pytest.raises(MatchingError, match="max_pairs"):
            matching.match_pairs(
                [{"v": 1.0}], [{"v": 1.0}], [by_value], max_pairs=bad
            )

    @pytest.mark.parametrize("cap", [0, 2, np.int64(2), 10])
    def test_valid_max_pairs_accepted(self, cap):
        summary = matching.match_pairs_arrays(
            self.POOL, self.POOL, max_pairs=cap
        )
        assert summary.n_matched == min(int(cap), 3)


# ---------------------------------------------------------------------------
# The caliper-window core against the dense oracle
# ---------------------------------------------------------------------------

#: Values the property suite draws confounders from: a quarter grid (so
#: exact ratios such as 5/4 and exact distance ties recur), the zero and
#: loss floors with neighbours either side of the caliper, and a few
#: magnitudes far apart.
_PALETTE = np.array(
    [i / 4 for i in range(17)]
    + [
        matching.ZERO_FLOOR / 10,
        matching.ZERO_FLOOR,
        matching.ZERO_FLOOR * 1.25,
        matching.ZERO_FLOOR * 1.26,
        matching.LOSS_MATCH_FLOOR,
        matching.LOSS_MATCH_FLOOR * 1.1,
        matching.LOSS_MATCH_FLOOR * 1.25,
        matching.LOSS_MATCH_FLOOR * 1.5,
        1e3,
        1.2e3,
        1e6,
    ]
)


def _log_matrix(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, matching.ZERO_FLOOR)).reshape(
        values.shape
    )


def _triples(result):
    accepted, n_candidates = result
    return (
        [(c, t, np.float64(d).tobytes()) for c, t, d in accepted],
        n_candidates,
    )


def _assert_matches_oracle(log_c, log_t, caliper, max_pairs=None):
    window = matching._greedy_index_pairs(log_c, log_t, caliper, max_pairs)
    dense = dense_greedy_index_pairs(log_c, log_t, caliper, max_pairs)
    assert _triples(window) == _triples(dense)
    return window


_POOL_STRATEGIES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=5),
    n_control=st.integers(min_value=0, max_value=80),
    n_treatment=st.integers(min_value=0, max_value=80),
    palette_size=st.integers(min_value=1, max_value=len(_PALETTE)),
    caliper=st.sampled_from([0.1, 0.25, 0.5]),
    max_pairs=st.none() | st.integers(min_value=0, max_value=90),
)


def _assert_random_pools_match_oracle(
    seed, k, n_control, n_treatment, palette_size, caliper, max_pairs
):
    rng = np.random.default_rng(seed)
    # A small palette per example makes duplicate rows and exact
    # distance ties common.
    palette = rng.choice(_PALETTE, size=palette_size, replace=False)
    log_c = _log_matrix(rng.choice(palette, size=(n_control, k)))
    log_t = _log_matrix(rng.choice(palette, size=(n_treatment, k)))
    _assert_matches_oracle(log_c, log_t, caliper, max_pairs)


class TestWindowCoreMatchesDenseOracle:
    """The window core returns the dense oracle's pairs, bit-identical
    distances and candidate count, on every pool."""

    @given(**_POOL_STRATEGIES)
    @settings(max_examples=200, deadline=None)
    def test_pairs_distances_and_candidates_identical(
        self, seed, k, n_control, n_treatment, palette_size, caliper,
        max_pairs,
    ):
        _assert_random_pools_match_oracle(
            seed, k, n_control, n_treatment, palette_size, caliper, max_pairs
        )

    @given(**_POOL_STRATEGIES)
    @settings(max_examples=100, deadline=None)
    def test_identical_when_accepting_in_slices_of_seven(
        self, seed, k, n_control, n_treatment, palette_size, caliper,
        max_pairs,
    ):
        # Many accept slices per call, and max_pairs stops inside one.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matching, "ACCEPT_SLICE", 7)
            _assert_random_pools_match_oracle(
                seed, k, n_control, n_treatment, palette_size, caliper,
                max_pairs,
            )

    @pytest.mark.parametrize("max_pairs", [None, 0, 1, 6, 7, 8, 30, 60])
    def test_slices_of_seven_stop_at_max_pairs(self, monkeypatch, max_pairs):
        # 60 x 70 identical rows: 4,200 candidates in 600 slices, and
        # every cap lands in a different place inside a slice.
        monkeypatch.setattr(matching, "ACCEPT_SLICE", 7)
        log_c = _log_matrix(np.full((60, 2), 3.0))
        log_t = _log_matrix(np.full((70, 2), 3.0))
        accepted, n_candidates = _assert_matches_oracle(
            log_c, log_t, 0.25, max_pairs
        )
        assert n_candidates == 60 * 70
        assert len(accepted) == (60 if max_pairs is None else max_pairs)

    @pytest.mark.parametrize("low,high", [(1.0, 1.25), (4.0, 5.0), (8.0, 10.0)])
    def test_ratio_of_exactly_one_and_a_quarter(self, low, high):
        log_c = _log_matrix(np.array([[low], [high]]))
        log_t = _log_matrix(np.array([[high], [low]]))
        accepted, n_candidates = _assert_matches_oracle(log_c, log_t, 0.25)
        assert n_candidates == 4
        assert len(accepted) == 2

    @pytest.mark.parametrize("origin", [0.0, 3.7, -13.8, 690.0])
    def test_one_ulp_either_side_of_the_bound(self, origin):
        bound = math.log(1.25) + 1e-12
        below = np.nextafter(bound, -np.inf)
        above = np.nextafter(bound, np.inf)
        offsets = np.array([below, bound, above, -below, -bound, -above])
        log_c = np.array([[origin]])
        log_t = (origin + offsets).reshape(-1, 1)
        _, n_candidates = _assert_matches_oracle(log_c, log_t, 0.25)
        if origin == 0.0:
            # Exact differences: the bound is inclusive, one ulp past it
            # is out, on both sides.
            assert n_candidates == 4
        # The bound on the first confounder is the window edge; a second
        # confounder at the same offsets exercises the exact test there.
        log_c2 = np.array([[origin, origin]])
        log_t2 = np.column_stack([np.full(offsets.size, origin), log_t[:, 0]])
        _assert_matches_oracle(log_c2, log_t2, 0.25)

    @pytest.mark.parametrize(
        "control,treatment",
        [
            ("0x1.14c3d029032cdp-2", "0x1.82208f614faebp-5"),
            ("-0x1.b541b4fca1f92p-3", "0x1.3bdc77d1074d1p-7"),
        ],
    )
    def test_candidate_just_outside_the_rounded_edge(self, control, treatment):
        # The treatment value lies one ulp past the rounded ``c0 -+ bound``,
        # yet the rounded difference passes the exact test: a window
        # without its margin would drop this candidate.
        bound = math.log(1.25) + 1e-12
        c0, t0 = float.fromhex(control), float.fromhex(treatment)
        assert not (c0 - bound <= t0 <= c0 + bound)
        assert abs(c0 - t0) <= bound
        _, n_candidates = _assert_matches_oracle(
            np.array([[c0]]), np.array([[t0]]), 0.25
        )
        assert n_candidates == 1

    def test_all_identical_pool(self):
        # Every treatment row lies in every window: the dense worst case.
        log_c = _log_matrix(np.full((60, 3), 2.0))
        log_t = _log_matrix(np.full((70, 3), 2.0))
        accepted, n_candidates = _assert_matches_oracle(log_c, log_t, 0.25)
        assert n_candidates == 60 * 70
        assert [(c, t) for c, t, _ in accepted] == [(i, i) for i in range(60)]

    def test_five_confounder_pools_in_chunks_of_three(self, monkeypatch):
        control, treatment, extractors = _five_confounder_pools(60)
        log_c = _log_matrix(
            np.array([[e(u) for e in extractors] for u in control])
        )
        log_t = _log_matrix(
            np.array([[e(u) for e in extractors] for u in treatment])
        )
        monkeypatch.setattr(
            matching, "candidate_chunk_rows", lambda *args, **kwargs: 3
        )
        accepted, n_candidates = _assert_matches_oracle(log_c, log_t, 0.25)
        assert n_candidates > len(accepted) > 0
