"""Field-normalized performance indicators.

Citations and journal impact factors are rescaled against the mean of the
publication's (year, subject category) cell before aggregation, which makes
scores comparable across fields:

* FSS — yearly rate of fractionally-credited normalized citations:
  (1/t) * sum_i (c_i / cbar_i) * f_i
* P   — yearly publication rate: N / t
* IA  — mean normalized citations per publication: (1/N) * sum_i c_i / cbar_i
* IJ  — mean normalized journal impact factor: (1/N) * sum_i if_i / ifbar_i

cbar is the cell mean over cited publications only; ifbar is the cell mean
over publications with a known impact factor.  Uncited publications add zero
to the FSS and IA sums but still count in N.  Professors without window
publications score FSS = P = 0 and have IA/IJ undefined.

A whole roster is scored in one vectorised pass over the corpus columns
(:func:`compute_scores`).  ``np.bincount`` adds each professor's terms in
corpus order, the order a per-professor loop adds them in, so the sums are
bit-for-bit those of the loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Roster
from .credit import CONVENTIONS, ConventionMap, fractional_contribution

logger = logging.getLogger(__name__)

INDICATORS = ("FSS", "P", "IA", "IJ")

# Why IJ skips a publication.
UNKNOWN_IF, NO_IF_CELL = 1, 2


class MissingCellError(ValueError):
    """A (year, subject category) scaling cell needed in strict mode is absent."""


@dataclass(frozen=True)
class CellStats:
    mean_citations_cited: float | None   # mean citations over cited pubs
    mean_impact_factor: float | None     # mean IF over pubs with known IF


class ScalingTable:
    """Per-(year, subject_category) normalization means."""

    def __init__(self, cells: dict[tuple[int, str], CellStats]):
        self._cells = dict(cells)

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, year: int, category: str) -> CellStats | None:
        return self._cells.get((year, category))

    def mean_citations(self, year: int, category: str) -> float | None:
        stats = self._cells.get((year, category))
        return None if stats is None else stats.mean_citations_cited

    def mean_impact_factor(self, year: int, category: str) -> float | None:
        stats = self._cells.get((year, category))
        return None if stats is None else stats.mean_impact_factor

    def publication_means(self, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
        """cbar and ifbar of every publication in ``corpus``; NaN where absent."""
        cell, keys = corpus.cells
        stats = [self._cells.get(key) or CellStats(None, None) for key in keys]
        cbar = [math.nan if s.mean_citations_cited is None else s.mean_citations_cited
                for s in stats]
        ifbar = [math.nan if s.mean_impact_factor is None else s.mean_impact_factor
                 for s in stats]
        return np.asarray(cbar, dtype=float)[cell], np.asarray(ifbar, dtype=float)[cell]


def build_scaling_table(corpus: Corpus) -> ScalingTable:
    """Compute cell means from a corpus.  The corpus must be nonempty."""
    if not len(corpus):
        raise ValueError("cannot build a scaling table from an empty corpus")
    cell, keys = corpus.cells
    cited = corpus.citations > 0
    known = ~np.isnan(corpus.impact)
    n_cells = len(keys)
    cite_sum = np.bincount(cell[cited], weights=corpus.citations[cited], minlength=n_cells)
    cite_num = np.bincount(cell[cited], minlength=n_cells)
    if_sum = np.bincount(cell[known], weights=corpus.impact[known], minlength=n_cells)
    if_num = np.bincount(cell[known], minlength=n_cells)
    return ScalingTable({
        key: CellStats(
            mean_citations_cited=float(cite_sum[j] / cite_num[j]) if cite_num[j] else None,
            mean_impact_factor=float(if_sum[j] / if_num[j]) if if_num[j] else None)
        for j, key in enumerate(keys)})


def _mean_or_nan(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    return np.divide(total, count, out=np.full(total.shape, math.nan), where=count > 0)


def _roster_conventions(roster: Roster, conventions: ConventionMap) -> np.ndarray:
    """Each professor's credit convention, as an index into CONVENTIONS."""
    width = max(len(roster.uda_names), 1)
    pairs, pair = np.unique(roster.sds.astype(np.int64) * width + roster.uda,
                            return_inverse=True)
    codes = [CONVENTIONS.index(conventions.resolve(roster.sds_names[k // width],
                                                   roster.uda_names[k % width]))
             for k in pairs.tolist()]
    return np.array(codes, dtype=np.int64)[pair.reshape(-1)]


def compute_scores(roster: Roster, corpus: Corpus, scaling: ScalingTable,
                   conventions: ConventionMap, window: tuple[int, int],
                   t: np.ndarray, strict: bool = False) -> dict[str, np.ndarray]:
    """All four indicators for every professor, in roster order, in one pass.

    Returns a column per indicator (``FSS``, ``P``, ``IA``, ``IJ``; IA and IJ
    are NaN where undefined) and ``n_pubs``, the in-window publication count
    (0 = inactive).  ``t`` is each professor's working years in the window
    (the ``t`` column of ``corpus.derive_covariates``).  A publication whose
    scaling mean is missing (or whose impact factor is unknown) is skipped by
    the indicators that need it, with one warning per professor, publication
    and indicator in roster and then corpus order; with ``strict`` the first
    such publication raises :class:`MissingCellError`.  Professor ids must be
    unique.
    """
    if len(set(roster.ids)) != len(roster):
        raise ValueError("duplicate professor id in roster")
    who, rows = corpus.authored_by(roster.ids, window)   # in-window roster authorships
    pub = corpus.pub[rows]

    cbar, ifbar = scaling.publication_means(corpus)
    cited = corpus.citations > 0
    no_cite_cell = cited & np.isnan(cbar)
    cite_ratio = np.divide(corpus.citations, cbar, out=np.zeros(len(corpus)),
                           where=cited & ~no_cite_cell)
    unknown_if = np.isnan(corpus.impact)
    no_if_cell = ~unknown_if & (np.isnan(ifbar) | (ifbar == 0))
    if_ok = ~(unknown_if | no_if_cell)
    if_ratio = np.divide(corpus.impact, ifbar, out=np.zeros(len(corpus)), where=if_ok)

    if_reason = np.where(unknown_if, UNKNOWN_IF, np.where(no_if_cell, NO_IF_CELL, 0))
    _check_and_warn(roster.ids, corpus, window, t, who, pub, no_cite_cell[pub],
                    if_reason[pub], strict)

    share = fractional_contribution(_roster_conventions(roster, conventions)[who],
                                    corpus.shared[pub], corpus.n_authors[pub],
                                    corpus.position[rows])
    n = len(roster)
    ratio = cite_ratio[pub]
    ia_ok = ~no_cite_cell[pub]
    ij_ok = if_ok[pub]
    n_pubs = np.bincount(who, minlength=n)
    return {
        "FSS": np.bincount(who, weights=ratio * share, minlength=n) / t,
        "P": n_pubs / t,
        "IA": _mean_or_nan(np.bincount(who[ia_ok], weights=ratio[ia_ok], minlength=n),
                           np.bincount(who[ia_ok], minlength=n)),
        "IJ": _mean_or_nan(np.bincount(who[ij_ok], weights=if_ratio[pub][ij_ok],
                                       minlength=n),
                           np.bincount(who[ij_ok], minlength=n)),
        "n_pubs": n_pubs,
    }


def _check_and_warn(ids: list[str], corpus: Corpus, window: tuple[int, int],
                    t: np.ndarray, who: np.ndarray, pub: np.ndarray,
                    bad_cite: np.ndarray, bad_if: np.ndarray, strict: bool) -> None:
    """Raise for the first professor with no working years or, under ``strict``,
    a skipped publication; otherwise log every skip.

    ``who``/``pub`` give each in-window authorship's index into ``ids`` and
    publication; ``bad_cite`` marks a missing citation cell and ``bad_if``
    holds UNKNOWN_IF or NO_IF_CELL.  Skips are reported per professor in the
    order of the per-indicator walks: FSS and IA over citation cells, then IJ.
    """
    cite_rows, if_rows = np.flatnonzero(bad_cite), np.flatnonzero(bad_if)
    rows = np.concatenate([cite_rows, cite_rows, if_rows])
    reasons = np.concatenate([np.zeros(2 * cite_rows.size, dtype=int), bad_if[if_rows]])
    stage = np.repeat([0, 1, 2], [cite_rows.size, cite_rows.size, if_rows.size])
    order = np.lexsort((rows, stage, who[rows]))
    events = list(zip(who[rows][order].tolist(), pub[rows][order].tolist(),
                      reasons[order].tolist()))
    idle = np.flatnonzero(t <= 0)
    if strict and events and (not idle.size or events[0][0] < idle[0]):
        i, p, reason = events[0]
        raise MissingCellError(_skip_message(ids[i], corpus, p, reason, strict))
    if idle.size:
        raise ValueError(f"{ids[idle[0]]}: no working years inside window {window}")
    for i, p, reason in events:
        logger.warning(_skip_message(ids[i], corpus, p, reason, strict=False))


def _skip_message(owner: str, corpus: Corpus, p: int, reason: int, strict: bool) -> str:
    """Why publication ``p`` is skipped: 0 (no citation cell), UNKNOWN_IF or NO_IF_CELL."""
    pid, year = corpus.ids[p], int(corpus.year[p])
    category = corpus.categories[corpus.category[p]]
    if reason == UNKNOWN_IF:
        return (f"{owner}: publication {pid} has no impact factor" if strict
                else f"{owner}: skipping {pid}, unknown impact factor")
    what = "impact-factor" if reason == NO_IF_CELL else "citation"
    return (f"{owner}: no {what} scaling cell for ({year}, {category!r})" if strict
            else f"{owner}: skipping {pid}, no {what} scaling cell for ({year}, {category})")
