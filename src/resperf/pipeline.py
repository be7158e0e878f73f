"""End-to-end orchestration: corpus -> credit -> indicators -> cohorts -> frame."""

from __future__ import annotations

from datetime import date
from typing import Mapping, Sequence

import numpy as np

from .cohort import cohort_percentiles
from .corpus import Corpus, Covariates, Professor, derive_covariates
from .credit import ConventionMap
from .indicators import (INDICATORS, IndicatorScores, ScalingTable,
                         build_scaling_table, compute_scores)
from .regress import RegressionFrame


def compute_indicator_scores(roster: Sequence[Professor], corpus: Corpus,
                             conventions: ConventionMap,
                             window: tuple[int, int],
                             strict: bool = False) -> dict[str, IndicatorScores]:
    """Scores for every rostered professor, keyed by id, in roster order."""
    scaling = build_scaling_table(corpus) if len(corpus) else ScalingTable({})
    scores = compute_scores(roster, corpus, scaling, conventions, window, strict)
    return {prof.id: s for prof, s in zip(roster, scores)}


def derive_all_covariates(roster: Sequence[Professor], census_date: date,
                          window: tuple[int, int]) -> dict[str, Covariates]:
    return {p.id: derive_covariates(p, census_date, window) for p in roster}


def regression_frame(roster: Sequence[Professor],
                     covariates: Mapping[str, Covariates],
                     percentiles: Mapping[str, Mapping[str, float]]
                     ) -> RegressionFrame:
    """Join roster, covariates and percentile scores into regression inputs."""
    covs = [covariates[p.id] for p in roster]
    return RegressionFrame(
        ids=np.array([p.id for p in roster], dtype=str),
        uda=np.array([p.uda for p in roster], dtype=str),
        age=np.array([c.age for c in covs], dtype=float),
        covariates=np.array([(c.seniority, c.gender_dummy, c.u1, c.u2, c.u3)
                             for c in covs], dtype=float).reshape(-1, 5),
        percentiles=np.array([[percentiles.get(p.id, {}).get(i, np.nan) for i in INDICATORS]
                              for p in roster], dtype=float).reshape(-1, len(INDICATORS)))


def run_scoring(roster: Sequence[Professor], corpus: Corpus,
                conventions: ConventionMap, census_date: date,
                window: tuple[int, int], strict: bool = False):
    """Full scoring pass: covariates, indicator scores and cohort percentiles."""
    covariates = derive_all_covariates(roster, census_date, window)
    scores = compute_indicator_scores(roster, corpus, conventions, window, strict)
    return covariates, scores, cohort_percentiles(roster, scores)
