"""Reference implementations: per-professor covariates, scoring and
percentiles, and the per-column rank test of the exact-dependence pass.

The per-professor loop is the one the vectorised passes in ``resperf.corpus``,
``resperf.indicators`` and ``resperf.cohort`` replaced.  It reads the roster
and the corpus back as records from their columns.  Covariates come from
``datetime.date`` arithmetic, one professor at a time.  Scoring walks each
professor's publications in corpus order, takes each credit share from
``byline_weights`` and the byline's first and last universities, and ranks
each cohort with a Python tie loop.  It calls neither
``Corpus.authored_by`` nor ``fractional_contribution``, which it checks.
The vectorised code adds the same terms in the same order, so tests compare
the two with ``==``.  :func:`exact_dependence` runs one ``matrix_rank`` per
column, where ``resperf.regress.collinearity_check`` factorises once.
"""

from __future__ import annotations

import logging
import math
from datetime import date

import numpy as np

from helpers import Prof, Pub, professors, records
from resperf.corpus import DAYS_PER_YEAR, RECENT_PROMOTION_YEARS, Corpus
from resperf.credit import ConventionMap, byline_weights
from resperf.indicators import (INDICATORS, CellStats, MissingCellError,
                                ScalingTable)

logger = logging.getLogger("resperf.indicators")


def exact_years(start: date, end: date) -> float:
    return (end - start).days / DAYS_PER_YEAR


def whole_years(start: date, end: date) -> int:
    """Completed years from start to end (anniversary arithmetic)."""
    years = end.year - start.year
    if (end.month, end.day) < (start.month, start.day):
        years -= 1
    return years


def working_years(active_span: tuple[date, date] | None,
                  window: tuple[int, int]) -> float:
    """Fractional years of the active span inside the observation window.

    Each calendar year contributes (covered days)/(days in that year), so a
    span covering the whole window yields exactly the window length in years.
    """
    start_year, end_year = window
    if start_year > end_year:
        raise ValueError(f"invalid window {window}")
    if active_span is None:
        return float(end_year - start_year + 1)
    a, b = active_span
    total = 0.0
    for year in range(start_year, end_year + 1):
        y0, y1 = date(year, 1, 1), date(year, 12, 31)
        lo, hi = max(a, y0), min(b, y1)
        if lo <= hi:
            days_in_year = (date(year + 1, 1, 1) - y0).days
            total += ((hi - lo).days + 1) / days_in_year
    return total


def derive_covariates(professor: Prof, census_date: date,
                      window: tuple[int, int]) -> dict:
    """One professor's covariates, keyed like the columns of
    ``resperf.corpus.derive_covariates``."""
    if census_date <= professor.birth_date:
        raise ValueError(f"{professor.id}: census date before birth")
    if census_date < professor.appointment_date:
        raise ValueError(f"{professor.id}: census date before appointment")
    age = exact_years(professor.birth_date, census_date)
    seniority = exact_years(professor.appointment_date, census_date)
    t = working_years(professor.span, window)
    if t <= 0:
        raise ValueError(f"{professor.id}: no working years inside window {window}")
    utype = professor.university_type
    return {
        "age": age,
        "seniority": seniority,
        "age_years": whole_years(professor.birth_date, census_date),
        "seniority_years": whole_years(professor.appointment_date, census_date),
        "gender_dummy": 1 if professor.gender == "male" else 0,
        "u1": 1 if utype == "private" else 0,
        "u2": 1 if utype == "advanced_school" else 0,
        "u3": 1 if utype == "polytechnic" else 0,
        "t": t,
        "recently_promoted": seniority < RECENT_PROMOTION_YEARS,
    }


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


def _working_years(professor: Prof, window: tuple[int, int]) -> float:
    t = working_years(professor.span, window)
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


def compute_scores(professor: Prof, pubs: list[tuple[Pub, int]],
                   scaling: ScalingTable, conventions: ConventionMap,
                   window: tuple[int, int], strict: bool = False) -> tuple:
    """One professor's (FSS, P, IA, IJ, n_pubs) from their in-window
    (publication, position) pairs; an undefined IA or IJ is None."""
    return (compute_fss(professor, pubs, scaling, conventions, window, strict),
            compute_p(professor, pubs, window),
            compute_ia(professor, pubs, scaling, strict),
            compute_ij(professor, pubs, scaling, strict),
            len(pubs))


def roster_scores(roster, corpus, conventions, window, strict=False, scaling=None):
    """Score columns, as ``resperf.indicators.compute_scores`` returns them,
    built one professor at a time."""
    if scaling is None:
        scaling = scaling_table(corpus) if len(corpus) else ScalingTable({})
    by_author = publications_by_author(corpus, window)
    rows = [compute_scores(p, by_author.get(p.id, []), scaling, conventions, window, strict)
            for p in professors(roster)]
    columns = list(zip(*rows)) or [()] * 5
    out = {name: np.array([math.nan if v is None else v for v in values], dtype=float)
           for name, values in zip(INDICATORS, columns)}
    out["n_pubs"] = np.array(columns[4], dtype=np.int64)
    return out


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


def cohort_percentiles(roster, scores) -> np.ndarray:
    """(n, 4) percentile matrix, NaN where unranked, one cohort at a time."""
    groups: dict[str, list[int]] = {}
    for i, prof in enumerate(professors(roster)):
        groups.setdefault(prof.sds, []).append(i)
    out = np.full((len(roster), len(INDICATORS)), math.nan)
    for members in groups.values():
        for j, indicator in enumerate(INDICATORS):
            holders = [i for i in members if not math.isnan(scores[indicator][i])]
            if not holders:
                continue
            values = [float(scores[indicator][i]) for i in holders]
            for i, pct in zip(holders, percentile_rank(values)):
                out[i, j] = pct
    return out


def exact_dependence(X: np.ndarray) -> tuple[list[int], list[int]]:
    """Kept and dropped columns of the greedy exact-dependence pass: left to
    right, a column is kept when it raises ``matrix_rank`` of the kept ones."""
    kept: list[int] = []
    dropped: list[int] = []
    for j in range(X.shape[1]):
        raises = np.linalg.matrix_rank(X[:, kept + [j]]) == len(kept) + 1
        (kept if raises else dropped).append(j)
    return kept, dropped
