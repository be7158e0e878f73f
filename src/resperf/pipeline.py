"""End-to-end orchestration: corpus -> credit -> indicators -> cohorts -> rows."""

from __future__ import annotations

from datetime import date
from typing import Mapping, Sequence

from .cohort import cohort_percentiles
from .corpus import Corpus, Covariates, Professor, derive_covariates
from .credit import ConventionMap
from .indicators import (IndicatorScores, ScalingTable, build_scaling_table,
                         score_roster)
from .regress import RegressionRow


def compute_indicator_scores(roster: Sequence[Professor], corpus: Corpus,
                             conventions: ConventionMap,
                             window: tuple[int, int],
                             strict: bool = False) -> dict[str, IndicatorScores]:
    """Scores for every rostered professor, keyed by id, in roster order."""
    scaling = build_scaling_table(corpus) if len(corpus) else ScalingTable({})
    scores = score_roster(roster, corpus, scaling, conventions, window, strict)
    return {prof.id: s for prof, s in zip(roster, scores)}


def derive_all_covariates(roster: Sequence[Professor], census_date: date,
                          window: tuple[int, int]) -> dict[str, Covariates]:
    return {p.id: derive_covariates(p, census_date, window) for p in roster}


def regression_rows(roster: Sequence[Professor],
                    covariates: Mapping[str, Covariates],
                    percentiles: Mapping[str, Mapping[str, float]]
                    ) -> list[RegressionRow]:
    """Join roster, covariates and percentile scores into regression inputs."""
    rows = []
    for prof in roster:
        cov = covariates[prof.id]
        rows.append(RegressionRow(
            professor_id=prof.id,
            uda=prof.uda,
            age=cov.age,
            seniority=cov.seniority,
            gender=cov.gender_dummy,
            u1=cov.u1,
            u2=cov.u2,
            u3=cov.u3,
            percentiles=dict(percentiles.get(prof.id, {})),
        ))
    return rows


def run_scoring(roster: Sequence[Professor], corpus: Corpus,
                conventions: ConventionMap, census_date: date,
                window: tuple[int, int], strict: bool = False):
    """Full scoring pass: covariates, indicator scores, cohort percentiles, rows."""
    covariates = derive_all_covariates(roster, census_date, window)
    scores = compute_indicator_scores(roster, corpus, conventions, window, strict)
    percentiles = cohort_percentiles(roster, scores)
    rows = regression_rows(roster, covariates, percentiles)
    return covariates, scores, percentiles, rows
