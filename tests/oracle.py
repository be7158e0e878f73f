"""Per-professor reference implementation of scoring and percentiles.

This is the loop the vectorised pass in ``resperf.indicators`` and
``resperf.cohort`` replaced: it walks each professor's publications with
``Corpus.authored_by`` and ``fractional_contribution``, adds terms in corpus
order, and ranks each cohort with a Python tie loop.  The vectorised code
adds the same terms in the same order, so tests compare the two with ``==``.
"""

from __future__ import annotations

import logging

import numpy as np

from resperf.corpus import Corpus, Professor, Publication, working_years
from resperf.credit import ConventionMap, fractional_contribution
from resperf.indicators import (INDICATORS, CellStats, IndicatorScores,
                                MissingCellError, ScalingTable)

logger = logging.getLogger("resperf.indicators")


def scaling_table(corpus: Corpus) -> ScalingTable:
    cited: dict[tuple[int, str], list[int]] = {}
    impact: dict[tuple[int, str], list[float]] = {}
    keys: dict[tuple[int, str], None] = {}
    for pub in corpus.publications:
        key = (pub.year, pub.subject_category)
        keys[key] = None
        if pub.citations > 0:
            cited.setdefault(key, []).append(pub.citations)
        if pub.journal_if is not None:
            impact.setdefault(key, []).append(pub.journal_if)
    return ScalingTable({key: CellStats(
        mean_citations_cited=sum(cited[key]) / len(cited[key]) if key in cited else None,
        mean_impact_factor=sum(impact[key]) / len(impact[key]) if key in impact else None)
        for key in keys})


def _citation_ratio(pub: Publication, scaling: ScalingTable, strict: bool,
                    owner: str) -> float | None:
    if pub.citations == 0:
        return 0.0
    cbar = scaling.mean_citations(pub.year, pub.subject_category)
    if cbar is None:
        if strict:
            raise MissingCellError(
                f"{owner}: no citation scaling cell for "
                f"({pub.year}, {pub.subject_category!r})")
        logger.warning("%s: skipping %s, no citation scaling cell for (%s, %s)",
                       owner, pub.id, pub.year, pub.subject_category)
        return None
    return pub.citations / cbar


def _impact_ratio(pub: Publication, scaling: ScalingTable, strict: bool,
                  owner: str) -> float | None:
    if pub.journal_if is None:
        if strict:
            raise MissingCellError(f"{owner}: publication {pub.id} has no impact factor")
        logger.warning("%s: skipping %s, unknown impact factor", owner, pub.id)
        return None
    ifbar = scaling.mean_impact_factor(pub.year, pub.subject_category)
    if ifbar is None or ifbar == 0:
        if strict:
            raise MissingCellError(
                f"{owner}: no impact-factor scaling cell for "
                f"({pub.year}, {pub.subject_category!r})")
        logger.warning("%s: skipping %s, no impact-factor scaling cell for (%s, %s)",
                       owner, pub.id, pub.year, pub.subject_category)
        return None
    return pub.journal_if / ifbar


def _working_years(professor: Professor, window: tuple[int, int]) -> float:
    t = working_years(professor.active_span, window)
    if t <= 0:
        raise ValueError(f"{professor.id}: no working years inside window {window}")
    return t


def compute_fss(professor, corpus, scaling, conventions, window, strict=False):
    t = _working_years(professor, window)
    convention = conventions.resolve(professor.sds, professor.uda)
    total = 0.0
    for pub, pos in corpus.authored_by(professor.id, window):
        ratio = _citation_ratio(pub, scaling, strict, professor.id)
        if ratio is None or ratio == 0.0:
            continue
        total += ratio * fractional_contribution(pub, pos, convention)
    return total / t


def compute_p(professor, corpus, window):
    return len(corpus.authored_by(professor.id, window)) / _working_years(professor, window)


def compute_ia(professor, corpus, scaling, window, strict=False):
    num, count = 0.0, 0
    for pub, _ in corpus.authored_by(professor.id, window):
        ratio = _citation_ratio(pub, scaling, strict, professor.id)
        if ratio is None:
            continue
        num += ratio
        count += 1
    return num / count if count else None


def compute_ij(professor, corpus, scaling, window, strict=False):
    num, count = 0.0, 0
    for pub, _ in corpus.authored_by(professor.id, window):
        ratio = _impact_ratio(pub, scaling, strict, professor.id)
        if ratio is None:
            continue
        num += ratio
        count += 1
    return num / count if count else None


def compute_scores(professor: Professor, corpus: Corpus, scaling: ScalingTable,
                   conventions: ConventionMap, window: tuple[int, int],
                   strict: bool = False) -> IndicatorScores:
    return IndicatorScores(
        fss=compute_fss(professor, corpus, scaling, conventions, window, strict),
        p=compute_p(professor, corpus, window),
        ia=compute_ia(professor, corpus, scaling, window, strict),
        ij=compute_ij(professor, corpus, scaling, window, strict),
        n_pubs=len(corpus.authored_by(professor.id, window)),
    )


def roster_scores(roster, corpus, conventions, window, strict=False, scaling=None):
    """Scores keyed by professor id, one professor at a time."""
    if scaling is None:
        scaling = scaling_table(corpus) if len(corpus) else ScalingTable({})
    return {p.id: compute_scores(p, corpus, scaling, conventions, window, strict)
            for p in roster}


def percentile_rank(values) -> list[float]:
    n = len(values)
    arr = np.asarray(values, dtype=float)
    if n == 1:
        return [50.0]
    order = np.argsort(arr, kind="mergesort")
    sorted_vals = arr[order]
    ranks = np.empty(n, dtype=float)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1  # 1-based midrank
        i = j + 1
    return (100.0 * (ranks - 1.0) / (n - 1)).tolist()


def cohort_percentiles(roster, scores) -> dict[str, dict[str, float]]:
    groups: dict[str, list[Professor]] = {}
    for prof in roster:
        groups.setdefault(prof.sds, []).append(prof)
    out: dict[str, dict[str, float]] = {p.id: {} for p in roster}
    for members in groups.values():
        for indicator in INDICATORS:
            holders = [p for p in members if scores[p.id].value(indicator) is not None]
            if not holders:
                continue
            values = [scores[p.id].value(indicator) for p in holders]
            for prof, pct in zip(holders, percentile_rank(values)):
                out[prof.id][indicator] = pct
    return out
