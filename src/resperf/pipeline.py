"""End-to-end orchestration: corpus -> credit -> indicators -> cohorts -> frame."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .cohort import cohort_percentiles
from .corpus import Corpus, Roster
from .credit import ConventionMap
from .indicators import ScalingTable, build_scaling_table, compute_scores
from .regress import RegressionFrame

# the covariates columns behind regress.COVARIATE_ORDER
_FRAME_COVARIATES = ("seniority", "gender_dummy", "u1", "u2", "u3")


def compute_indicator_scores(roster: Roster, corpus: Corpus, conventions: ConventionMap,
                             window: tuple[int, int], t: np.ndarray,
                             strict: bool = False) -> dict[str, np.ndarray]:
    """Score columns for every rostered professor, in roster order; ``t`` is
    each one's working years in the window."""
    scaling = build_scaling_table(corpus) if len(corpus) else ScalingTable({})
    return compute_scores(roster, corpus, scaling, conventions, window, t, strict)


def regression_frame(roster: Roster, covariates: Mapping[str, np.ndarray],
                     percentiles: np.ndarray) -> RegressionFrame:
    """Stack roster, covariate and percentile columns into regression inputs."""
    return RegressionFrame(
        ids=np.array(roster.ids, dtype=str),
        uda=np.array(roster.uda_names, dtype=str)[roster.uda],
        age=covariates["age"],
        covariates=np.column_stack([covariates[c] for c in _FRAME_COVARIATES]).astype(float),
        percentiles=percentiles)


def run_scoring(roster: Roster, corpus: Corpus, conventions: ConventionMap,
                covariates: Mapping[str, np.ndarray], window: tuple[int, int],
                strict: bool = False) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Indicator scores and cohort percentiles of a roster whose covariates
    (see ``corpus.derive_covariates``) are already derived."""
    scores = compute_indicator_scores(roster, corpus, conventions, window,
                                      covariates["t"], strict)
    return scores, cohort_percentiles(roster, scores)
