"""Per-professor reference implementation of scoring and percentiles.

This is the loop the vectorised pass in ``resperf.indicators`` and
``resperf.cohort`` replaced.  It reads the corpus back as publication records
from its stored columns, walks each professor's publications in corpus
order, takes each credit share from ``byline_weights`` and the byline's
first and last universities, and ranks each cohort with a Python tie loop.
It calls neither ``Corpus.authored_by`` nor ``fractional_contribution``,
which it checks.  The vectorised code adds the same terms in the same order,
so tests compare the two with ``==``.
"""

from __future__ import annotations

import logging

import numpy as np

from helpers import Pub, records
from resperf.corpus import Corpus, Professor, working_years
from resperf.credit import ConventionMap, byline_weights
from resperf.indicators import (INDICATORS, CellStats, IndicatorScores,
                                MissingCellError, ScalingTable)

logger = logging.getLogger("resperf.indicators")


def scaling_table(corpus: Corpus) -> ScalingTable:
    cited: dict[tuple[int, str], list[int]] = {}
    impact: dict[tuple[int, str], list[float]] = {}
    keys: dict[tuple[int, str], None] = {}
    for pub in records(corpus):
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


def publications_by_author(corpus: Corpus, window: tuple[int, int]
                           ) -> dict[str, list[tuple[Pub, int]]]:
    """Each author's in-window (publication, byline position) pairs, in corpus order."""
    out: dict[str, list[tuple[Pub, int]]] = {}
    for pub in records(corpus):
        if window[0] <= pub.year <= window[1]:
            for pos, (author, _) in enumerate(pub.byline):
                out.setdefault(author, []).append((pub, pos))
    return out


def _citation_ratio(pub: Pub, scaling: ScalingTable, strict: bool,
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


def _impact_ratio(pub: Pub, scaling: ScalingTable, strict: bool,
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


def compute_fss(professor, pubs, scaling, conventions, window, strict=False):
    t = _working_years(professor, window)
    convention = conventions.resolve(professor.sds, professor.uda)
    total = 0.0
    for pub, pos in pubs:
        ratio = _citation_ratio(pub, scaling, strict, professor.id)
        if ratio is None or ratio == 0.0:
            continue
        shared = pub.byline[0][1] == pub.byline[-1][1]
        total += ratio * byline_weights(len(pub.byline), convention, shared)[pos]
    return total / t


def compute_p(professor, pubs, window):
    return len(pubs) / _working_years(professor, window)


def compute_ia(professor, pubs, scaling, strict=False):
    num, count = 0.0, 0
    for pub, _ in pubs:
        ratio = _citation_ratio(pub, scaling, strict, professor.id)
        if ratio is None:
            continue
        num += ratio
        count += 1
    return num / count if count else None


def compute_ij(professor, pubs, scaling, strict=False):
    num, count = 0.0, 0
    for pub, _ in pubs:
        ratio = _impact_ratio(pub, scaling, strict, professor.id)
        if ratio is None:
            continue
        num += ratio
        count += 1
    return num / count if count else None


def compute_scores(professor: Professor, pubs: list[tuple[Pub, int]],
                   scaling: ScalingTable, conventions: ConventionMap,
                   window: tuple[int, int], strict: bool = False) -> IndicatorScores:
    """One professor's scores from their in-window (publication, position) pairs."""
    return IndicatorScores(
        fss=compute_fss(professor, pubs, scaling, conventions, window, strict),
        p=compute_p(professor, pubs, window),
        ia=compute_ia(professor, pubs, scaling, strict),
        ij=compute_ij(professor, pubs, scaling, strict),
        n_pubs=len(pubs),
    )


def roster_scores(roster, corpus, conventions, window, strict=False, scaling=None):
    """Scores keyed by professor id, one professor at a time."""
    if scaling is None:
        scaling = scaling_table(corpus) if len(corpus) else ScalingTable({})
    by_author = publications_by_author(corpus, window)
    return {p.id: compute_scores(p, by_author.get(p.id, []), scaling, conventions,
                                 window, strict)
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
