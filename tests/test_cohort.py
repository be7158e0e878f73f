"""Percentile scaling: midrank oracle, invariances, cohort assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_professor, make_roster, percentile_rank
from resperf.cohort import cohort_percentiles
from resperf.indicators import INDICATORS


def brute_force_percentiles(values):
    """Count-based oracle: rank - 1 = (#smaller) + (#equal - 1) / 2."""
    n = len(values)
    if n == 1:
        return [50.0]
    out = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(100.0 * (smaller + (equal - 1) / 2) / (n - 1))
    return out


class TestPercentileRank:
    def test_three_distinct_values(self):
        assert percentile_rank([10.0, 20.0, 30.0]) == [0.0, 50.0, 100.0]

    def test_order_of_input_is_respected(self):
        assert percentile_rank([30.0, 10.0, 20.0]) == [100.0, 0.0, 50.0]

    def test_all_tied_is_all_fifty(self):
        assert percentile_rank([7.0] * 5) == [50.0] * 5

    def test_singleton_scores_fifty(self):
        assert percentile_rank([123.4]) == [50.0]

    def test_tie_pair_shares_midrank(self):
        # ranks 1, 2.5, 2.5, 4 -> 0, 50, 50, 100
        assert percentile_rank([1.0, 5.0, 5.0, 9.0]) == [0.0, 50.0, 50.0, 100.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            vals = rng.integers(0, 8, size=n).astype(float).tolist()
            assert percentile_rank(vals) == brute_force_percentiles(vals)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 6, size=25).astype(float).tolist()
        base = percentile_rank(vals)
        for transform in (lambda x: 3.0 * x + 7.0,
                          lambda x: x ** 3,
                          lambda x: math.exp(x / 2.0)):
            assert percentile_rank([transform(v) for v in vals]) == base

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=30).tolist()
        fwd = percentile_rank(vals)
        rev = percentile_rank([-v for v in vals])
        for a, b in zip(fwd, rev):
            assert a + b == pytest.approx(100.0, abs=1e-9)

    def test_cohort_mean_is_fifty(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = rng.integers(0, 5, size=int(rng.integers(2, 60))).astype(float)
            assert np.mean(percentile_rank(vals.tolist())) == pytest.approx(50.0, abs=1e-9)

    def test_nan_rejected(self):
        roster = make_roster([make_professor(f"A{i}") for i in range(3)])
        for indicator in ("FSS", "P"):
            table = scores(*[(1.0, 1.0, 1.0, 1.0)] * 3)
            table[indicator][1] = float("nan")
            with pytest.raises(ValueError, match="NaN"):
                cohort_percentiles(roster, table)

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30))
    @settings(deadline=None, max_examples=200)
    def test_oracle_equality_property(self, ints):
        vals = [float(v) for v in ints]
        assert percentile_rank(vals) == brute_force_percentiles(vals)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=40))
    @settings(deadline=None, max_examples=200)
    def test_bounds_and_mean_property(self, vals):
        pcts = percentile_rank(vals)
        assert all(0.0 <= p <= 100.0 for p in pcts)
        assert float(np.mean(pcts)) == pytest.approx(50.0, abs=1e-9)


def scores(*rows):
    """Score columns from (fss, p, ia, ij) rows; None is an undefined IA or IJ."""
    columns = np.array([[np.nan if v is None else v for v in r] for r in rows],
                       dtype=float).reshape(-1, 4)
    return dict(zip(INDICATORS, columns.T))


def by_id(roster, pcts):
    """Each professor's ranked percentiles, keyed by id and indicator."""
    return {pid: {ind: v for ind, v in zip(INDICATORS, row) if not math.isnan(v)}
            for pid, row in zip(roster.ids, pcts.tolist())}


class TestCohortPercentiles:
    def test_groups_are_per_sds(self):
        roster = make_roster([make_professor("A1", sds="MAT/01"),
                              make_professor("A2", sds="MAT/01"),
                              make_professor("B1", sds="MAT/02"),
                              make_professor("B2", sds="MAT/02"),
                              make_professor("B3", sds="MAT/02")])
        table = scores((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0), (5.0, 1.0, 0.5, 2.0),
                       (1.0, 2.0, 1.5, 1.0), (3.0, 3.0, 1.0, 3.0))
        pcts = by_id(roster, cohort_percentiles(roster, table))
        assert pcts["A1"]["FSS"] == 0.0 and pcts["A2"]["FSS"] == 100.0
        assert [pcts[p]["FSS"] for p in ("B1", "B2", "B3")] == [100.0, 0.0, 50.0]
        assert [pcts[p]["IJ"] for p in ("B1", "B2", "B3")] == [50.0, 0.0, 100.0]

    def test_inactive_kept_for_fss_and_p_only(self):
        roster = make_roster([make_professor("A1"), make_professor("A2"),
                              make_professor("A3")])
        table = scores((0.0, 0.0, None, None), (1.0, 0.5, 2.0, 1.0), (2.0, 1.0, 1.0, 2.0))
        pcts = by_id(roster, cohort_percentiles(roster, table))
        assert pcts["A1"]["FSS"] == 0.0 and pcts["A1"]["P"] == 0.0
        assert "IA" not in pcts["A1"] and "IJ" not in pcts["A1"]
        # the defined-IA cohort has two members, not three
        assert sorted([pcts["A2"]["IA"], pcts["A3"]["IA"]]) == [0.0, 100.0]

    def test_missing_scores_rejected(self):
        roster = make_roster([make_professor("A1"), make_professor("A2")])
        with pytest.raises(ValueError, match="roster of 2 professors"):
            cohort_percentiles(roster, scores((0.0, 0.0, None, None)))

    def test_undefined_fss_rejected(self):
        roster = make_roster([make_professor("A1"), make_professor("A2")])
        with pytest.raises(ValueError, match="cohort contains NaN"):
            cohort_percentiles(roster, scores((0.0, 0.0, None, None),
                                              (None, 0.0, None, None)))

    def test_all_inactive_cohort_ties_at_fifty(self):
        roster = make_roster([make_professor(f"A{i}") for i in range(4)])
        table = scores(*[(0.0, 0.0, None, None)] * 4)
        pcts = by_id(roster, cohort_percentiles(roster, table))
        for pid in roster.ids:
            assert pcts[pid]["FSS"] == 50.0
            assert pcts[pid]["P"] == 50.0
            assert "IA" not in pcts[pid]
