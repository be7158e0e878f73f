"""Percentile scaling of indicator scores within comparison cohorts.

Percentiles run 0-100 from worst to best.  Ties receive the average of the
ranks they occupy (midrank); a singleton cohort scores 50.  Cohorts are one
field (SDS) at one academic rank; this pipeline covers the full-professor
rank only.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .corpus import Roster
from .indicators import INDICATORS


def _group_percentiles(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Midrank percentile of each value within its group, 100 * (rank - 1) / (n - 1).

    One lexsort by (group, value) covers every group; ranks are 1-based
    midranks of tie blocks, and a group of one scores 50.
    """
    n = values.size
    if n == 0:
        return np.zeros(0)
    order = np.lexsort((values, group))
    g, v = group[order], values[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_tie = new_group.copy()
    new_tie[1:] |= v[1:] != v[:-1]

    def block_bounds(starts_mask):
        starts = np.flatnonzero(starts_mask)
        ends = np.append(starts[1:], n) - 1
        block = np.cumsum(starts_mask) - 1
        return starts[block], ends[block]

    g_lo, g_hi = block_bounds(new_group)
    t_lo, t_hi = block_bounds(new_tie)
    ranks = ((t_lo - g_lo) + (t_hi - g_lo)) / 2 + 1
    size = g_hi - g_lo + 1
    pct = np.full(n, 50.0)
    many = size > 1
    pct[many] = 100.0 * (ranks[many] - 1.0) / (size[many] - 1)
    out = np.empty(n)
    out[order] = pct
    return out


def cohort_percentiles(roster: Roster, scores: Mapping[str, np.ndarray]) -> np.ndarray:
    """Percentile of every professor, per indicator, within SDS cohorts.

    Returns an (n, 4) matrix in roster and ``INDICATORS`` order.  FSS and P
    cover everybody (inactive professors keep their zeros); IA and IJ
    cohorts contain only professors with a defined (non-NaN) value, and the
    others are NaN, unranked.
    """
    out = np.full((len(roster), len(INDICATORS)), math.nan)
    for j, indicator in enumerate(INDICATORS):
        values = np.asarray(scores[indicator], dtype=float)
        if values.shape != (len(roster),):
            raise ValueError(f"{values.size} {indicator} scores for a roster of "
                             f"{len(roster)} professors")
        held = ~np.isnan(values)
        if indicator in ("FSS", "P") and not held.all():
            raise ValueError("cohort contains NaN")
        out[held, j] = _group_percentiles(roster.sds[held], values[held])
    return out
