"""Orchestration: roster scoring and regression-frame assembly."""

from datetime import date

import numpy as np
import pytest

from helpers import (make_corpus, make_professor, make_roster, plain, professors,
                     tiny_publications, years)
from resperf.cohort import cohort_percentiles
from resperf.corpus import derive_covariates
from resperf.credit import ConventionMap
from resperf.indicators import INDICATORS, compute_scores
from resperf.pipeline import regression_frame, run_scoring

WINDOW = (2006, 2010)
CENSUS = date(2010, 12, 31)


class TestComputeIndicatorScores:
    """compute_scores over a whole roster."""

    def test_matches_serial_per_professor_computation(self, tiny_world):
        roster, corpus = tiny_world
        conventions = ConventionMap()
        scores = compute_scores(roster, corpus, conventions, WINDOW, years(roster, WINDOW))
        for i, prof in enumerate(professors(roster)):
            alone = make_roster([prof])
            alone = compute_scores(alone, make_corpus(tiny_publications(), alone.ids),
                                   conventions, WINDOW, years(alone, WINDOW))
            assert plain(alone) == plain({k: v[i:i + 1] for k, v in scores.items()})

    def test_empty_corpus_marks_everyone_inactive(self):
        roster = make_roster([make_professor("P1"), make_professor("P2")])
        scores = compute_scores(roster, make_corpus((), roster.ids), ConventionMap(), WINDOW,
                                years(roster, WINDOW))
        assert scores["n_pubs"].tolist() == [0, 0]
        pcts = cohort_percentiles(roster, scores)
        assert pcts[:, INDICATORS.index("FSS")].tolist() == [50.0, 50.0]


class TestRunScoring:
    def test_outputs_align(self, tiny_world):
        roster, corpus = tiny_world
        covariates = derive_covariates(roster, CENSUS, WINDOW)
        scores, percentiles = run_scoring(roster, corpus, ConventionMap(), covariates,
                                          WINDOW)
        frame = regression_frame(roster, covariates, percentiles)
        assert {len(v) for v in (*covariates.values(), *scores.values())} == {len(roster)}
        for i, prof in enumerate(professors(roster)):
            assert frame.age[i] == covariates["age"][i]
            assert list(frame.covariates[i]) == [
                covariates[c][i] for c in ("seniority", "gender_dummy", "u1", "u2", "u3")]
            assert frame.uda[i] == prof.uda
        assert frame.percentiles is percentiles

    def test_every_active_professor_has_all_percentiles(self, tiny_world):
        roster, corpus = tiny_world
        covariates = derive_covariates(roster, CENSUS, WINDOW)
        scores, percentiles = run_scoring(roster, corpus, ConventionMap(), covariates,
                                          WINDOW)
        active = scores["n_pubs"] > 0
        assert active.any()
        assert not np.isnan(percentiles[active]).any()

    def test_derive_all_covariates_keys(self, tiny_world):
        roster, _ = tiny_world
        covs = derive_covariates(roster, CENSUS, WINDOW)
        assert list(covs) == ["age", "seniority", "age_years", "seniority_years",
                              "gender_dummy", "u1", "u2", "u3", "t", "recently_promoted"]
        assert all(len(v) == len(roster) for v in covs.values())

    def test_regression_rows_tolerate_missing_percentiles(self, tiny_world):
        roster, _ = tiny_world
        covs = derive_covariates(roster, CENSUS, WINDOW)
        frame = regression_frame(roster, covs,
                                 np.full((len(roster), len(INDICATORS)), np.nan))
        assert frame.percentiles.shape == (len(roster), len(INDICATORS))
        assert np.isnan(frame.percentiles).all()

    def test_missing_covariates_raise(self, tiny_world):
        roster, _ = tiny_world
        with pytest.raises(KeyError):
            regression_frame(roster, {}, np.full((len(roster), len(INDICATORS)), np.nan))
