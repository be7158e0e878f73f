"""End-to-end orchestration: corpus -> credit -> indicators -> cohorts -> frame."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .cohort import cohort_percentiles
from .corpus import Corpus, Roster
from .credit import ConventionMap
from .indicators import compute_scores
from .regress import RegressionFrame

# the covariates columns behind regress.COVARIATE_ORDER
_FRAME_COVARIATES = ("seniority", "gender_dummy", "u1", "u2", "u3")


def regression_frame(roster: Roster, covariates: Mapping[str, np.ndarray],
                     percentiles: np.ndarray) -> RegressionFrame:
    """Stack roster, covariate and percentile columns into regression inputs."""
    return RegressionFrame(
        uda=np.array(roster.uda_names, dtype=str)[roster.uda],
        age=covariates["age"],
        covariates=np.column_stack([covariates[c] for c in _FRAME_COVARIATES]).astype(float),
        percentiles=percentiles)


def run_scoring(roster: Roster, corpus: Corpus, conventions: ConventionMap,
                covariates: Mapping[str, np.ndarray], window: tuple[int, int],
                strict: bool = False) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Indicator scores and cohort percentiles of a roster whose covariates
    (see ``corpus.derive_covariates``) are already derived."""
    scores = compute_scores(roster, corpus, conventions, window, covariates["t"], strict)
    return scores, cohort_percentiles(roster, scores)
