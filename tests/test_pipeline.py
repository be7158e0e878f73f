"""Orchestration: roster scoring and regression-frame assembly."""

from datetime import date

import numpy as np
import pytest

from helpers import make_corpus, make_professor
from resperf.cohort import cohort_percentiles
from resperf.credit import ConventionMap
from resperf.indicators import INDICATORS, build_scaling_table, compute_scores
from resperf.pipeline import (compute_indicator_scores, derive_all_covariates,
                              regression_frame, run_scoring)

WINDOW = (2006, 2010)
CENSUS = date(2010, 12, 31)


class TestComputeIndicatorScores:
    def test_matches_serial_per_professor_computation(self, tiny_world):
        roster, corpus = tiny_world
        conventions = ConventionMap()
        scores = compute_indicator_scores(roster, corpus, conventions, WINDOW)
        table = build_scaling_table(corpus)
        for prof in roster:
            assert scores[prof.id] == compute_scores([prof], corpus, table,
                                                     conventions, WINDOW)[0]

    def test_empty_corpus_marks_everyone_inactive(self):
        roster = [make_professor("P1"), make_professor("P2")]
        scores = compute_indicator_scores(roster, make_corpus(()), ConventionMap(),
                                          WINDOW)
        assert all(s.inactive for s in scores.values())
        pcts = cohort_percentiles(roster, scores)
        assert pcts["P1"]["FSS"] == 50.0 and pcts["P2"]["FSS"] == 50.0


class TestRunScoring:
    def test_outputs_align(self, tiny_world):
        roster, corpus = tiny_world
        covariates, scores, percentiles = run_scoring(
            roster, corpus, ConventionMap(), CENSUS, WINDOW)
        frame = regression_frame(roster, covariates, percentiles)
        assert set(covariates) == set(scores) == {p.id for p in roster}
        assert list(frame.ids) == [p.id for p in roster]
        for i, prof in enumerate(roster):
            cov = covariates[prof.id]
            assert frame.age[i] == cov.age
            assert list(frame.covariates[i]) == [cov.seniority, cov.gender_dummy,
                                                 cov.u1, cov.u2, cov.u3]
            assert frame.uda[i] == prof.uda
            ranked = {ind: frame.percentiles[i, j] for j, ind in enumerate(INDICATORS)
                      if not np.isnan(frame.percentiles[i, j])}
            assert ranked == percentiles[prof.id]

    def test_every_active_professor_has_all_percentiles(self, tiny_world):
        roster, corpus = tiny_world
        _, scores, percentiles = run_scoring(roster, corpus, ConventionMap(),
                                             CENSUS, WINDOW)
        for prof in roster:
            if not scores[prof.id].inactive:
                assert set(percentiles[prof.id]) == {"FSS", "P", "IA", "IJ"}

    def test_derive_all_covariates_keys(self, tiny_world):
        roster, _ = tiny_world
        covs = derive_all_covariates(roster, CENSUS, WINDOW)
        assert list(covs) == [p.id for p in roster]

    def test_regression_rows_tolerate_missing_percentiles(self, tiny_world):
        roster, _ = tiny_world
        covs = derive_all_covariates(roster, CENSUS, WINDOW)
        frame = regression_frame(roster, covs, {})
        assert frame.percentiles.shape == (len(roster), len(INDICATORS))
        assert np.isnan(frame.percentiles).all()

    def test_missing_covariates_raise(self, tiny_world):
        roster, _ = tiny_world
        with pytest.raises(KeyError):
            regression_frame(roster, {}, {})
