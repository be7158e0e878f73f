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
from typing import Iterator

import numpy as np

from .corpus import Corpus, Roster
from .credit import CONVENTIONS, ConventionMap, fractional_contribution

logger = logging.getLogger(__name__)

INDICATORS = ("FSS", "P", "IA", "IJ")

# Why IJ skips a publication.
UNKNOWN_IF, NO_IF_CELL = 1, 2

# Skip messages per log record.  A record per skip made the logging calls
# cost more than scoring itself (52,913 records on a 20k-professor corpus);
# records of this many lines cost one write each, and keep the joined text
# of a record small.
SKIPS_PER_RECORD = 1024


class MissingCellError(ValueError):
    """In strict mode, IJ would skip a publication: its impact factor is
    unknown, or its cell has no nonzero impact-factor mean."""


def build_scaling_table(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Each publication's cell means, cbar and ifbar: over the cited
    publications and over those with a known impact factor in its (year,
    subject category) cell, NaN where the cell has none."""
    width = max(len(corpus.categories), 1)
    cell = np.unique(corpus.year * width + corpus.category, return_inverse=True)[1].reshape(-1)
    n_cells = int(cell.max(initial=-1)) + 1
    cited = corpus.citations > 0
    known = ~np.isnan(corpus.impact)
    cbar = _mean_or_nan(np.bincount(cell[cited], weights=corpus.citations[cited],
                                    minlength=n_cells),
                        np.bincount(cell[cited], minlength=n_cells))
    ifbar = _mean_or_nan(np.bincount(cell[known], weights=corpus.impact[known],
                                     minlength=n_cells),
                         np.bincount(cell[known], minlength=n_cells))
    return cbar[cell], ifbar[cell]


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


def compute_scores(roster: Roster, corpus: Corpus, conventions: ConventionMap,
                   window: tuple[int, int], t: np.ndarray,
                   strict: bool = False) -> dict[str, np.ndarray]:
    """All four indicators for every professor, in roster order, in one pass.

    Returns a column per indicator (``FSS``, ``P``, ``IA``, ``IJ``; IA and IJ
    are NaN where undefined) and ``n_pubs``, the in-window publication count
    (0 = inactive).  ``t`` is each professor's working years in the window
    (the ``t`` column of ``corpus.derive_covariates``).  The scaling means
    come from ``corpus`` itself, so a cited publication always has a
    citation mean.  A publication whose impact factor is unknown, or whose
    cell has no nonzero impact-factor mean, is skipped by IJ, with one
    warning line per professor and publication in roster and then corpus
    order, logged in multi-line records; with ``strict`` the first such
    publication raises :class:`MissingCellError`.  ``corpus`` codes its
    byline authors by row of ``roster``, whose ids must be unique.
    """
    if len(set(roster.ids)) != len(roster):
        raise ValueError("duplicate professor id in roster")
    who, rows = corpus.authored_by(window)   # in-window roster authorships
    pub = corpus.pub[rows]

    cbar, ifbar = build_scaling_table(corpus)
    cite_ratio = np.divide(corpus.citations, cbar, out=np.zeros(len(corpus)),
                           where=corpus.citations > 0)
    unknown_if = np.isnan(corpus.impact)
    no_if_cell = ~unknown_if & (np.isnan(ifbar) | (ifbar == 0))
    if_ok = ~(unknown_if | no_if_cell)
    if_ratio = np.divide(corpus.impact, ifbar, out=np.zeros(len(corpus)), where=if_ok)

    if_reason = np.where(unknown_if, UNKNOWN_IF, np.where(no_if_cell, NO_IF_CELL, 0))
    _check_and_warn(roster.ids, corpus, window, t, who, pub, if_reason[pub], strict)

    share = fractional_contribution(_roster_conventions(roster, conventions)[who],
                                    corpus.shared[pub], corpus.n_authors[pub],
                                    corpus.position[rows])
    n = len(roster)
    ratio = cite_ratio[pub]
    ij_ok = if_ok[pub]
    n_pubs = np.bincount(who, minlength=n)
    return {
        "FSS": np.bincount(who, weights=ratio * share, minlength=n) / t,
        "P": n_pubs / t,
        "IA": _mean_or_nan(np.bincount(who, weights=ratio, minlength=n), n_pubs),
        "IJ": _mean_or_nan(np.bincount(who[ij_ok], weights=if_ratio[pub][ij_ok],
                                       minlength=n),
                           np.bincount(who[ij_ok], minlength=n)),
        "n_pubs": n_pubs,
    }


def _check_and_warn(ids: list[str], corpus: Corpus, window: tuple[int, int],
                    t: np.ndarray, who: np.ndarray, pub: np.ndarray,
                    reason: np.ndarray, strict: bool) -> None:
    """Raise for the first professor with no working years or, under ``strict``,
    a skipped publication; otherwise log every skip, one line each, in
    records of at most SKIPS_PER_RECORD lines.

    ``who``/``pub`` give each in-window authorship's index into ``ids`` and
    publication; ``reason`` holds UNKNOWN_IF or NO_IF_CELL for a skipped one
    and 0 otherwise.  Skips are reported per professor, in corpus order.
    """
    rows = np.flatnonzero(reason)
    order = np.lexsort((rows, who[rows]))
    owners, pubs, reasons = who[rows][order], pub[rows][order], reason[rows][order]
    idle = np.flatnonzero(t <= 0)
    if strict and pubs.size and (not idle.size or owners[0] < idle[0]):
        raise MissingCellError(next(_skip_message(ids, corpus, owners[:1], pubs[:1],
                                                  reasons[:1], strict)))
    if idle.size:
        raise ValueError(f"{ids[idle[0]]}: no working years inside window {window}")
    if logger.isEnabledFor(logging.WARNING):
        for start in range(0, pubs.size, SKIPS_PER_RECORD):
            batch = slice(start, start + SKIPS_PER_RECORD)
            logger.warning("\n".join(_skip_message(ids, corpus, owners[batch], pubs[batch],
                                                   reasons[batch], strict=False)))


def _skip_message(ids: list[str], corpus: Corpus, owners: np.ndarray, pubs: np.ndarray,
                  reasons: np.ndarray, strict: bool) -> Iterator[str]:
    """Why IJ skips each publication ``pubs[k]`` of professor ``ids[owners[k]]``:
    ``reasons[k]`` is UNKNOWN_IF or NO_IF_CELL."""
    for i, p, year, c, reason in zip(owners.tolist(), pubs.tolist(), corpus.year[pubs].tolist(),
                                     corpus.category[pubs].tolist(), reasons.tolist()):
        owner, pid, category = ids[i], corpus.ids[p], corpus.categories[c]
        if reason == UNKNOWN_IF:
            yield (f"{owner}: publication {pid} has no impact factor" if strict
                   else f"{owner}: skipping {pid}, unknown impact factor")
        else:
            yield (f"{owner}: no impact-factor scaling cell for ({year}, {category!r})"
                   if strict else
                   f"{owner}: skipping {pid}, no impact-factor scaling cell for "
                   f"({year}, {category})")
