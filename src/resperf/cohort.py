"""Percentile scaling of indicator scores within comparison cohorts.

Percentiles run 0-100 from worst to best.  Ties receive the average of the
ranks they occupy (midrank); a singleton cohort scores 50.  Cohorts are one
field (SDS) at one academic rank; this pipeline covers the full-professor
rank only.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .corpus import Professor
from .indicators import INDICATORS, IndicatorScores


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


def percentile_rank(values: Sequence[float]) -> list[float]:
    """Midrank percentiles: 100 * (rank - 1) / (n - 1)."""
    if len(values) == 0:
        raise ValueError("empty cohort")
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("cohort contains NaN")
    return _group_percentiles(np.zeros(arr.size, dtype=np.int64), arr).tolist()


def cohort_percentiles(roster: Sequence[Professor],
                       scores: Mapping[str, IndicatorScores]) -> dict[str, dict[str, float]]:
    """Percentile of every professor, per indicator, within SDS cohorts.

    FSS and P cover everybody (inactive professors keep their zeros); IA and
    IJ cohorts contain only professors with a defined value, so undefined
    entries are simply absent from the result.
    """
    records = []
    for prof in roster:
        if prof.id not in scores:
            raise KeyError(f"no scores for professor {prof.id}")
        records.append(scores[prof.id])
    cohorts: dict[str, int] = {}
    group = np.array([cohorts.setdefault(p.sds, len(cohorts)) for p in roster],
                     dtype=np.int64)
    out: dict[str, dict[str, float]] = {p.id: {} for p in roster}
    for indicator in INDICATORS:
        raw = [r.value(indicator) for r in records]
        values = np.array([math.nan if v is None else v for v in raw], dtype=float)
        held = np.flatnonzero(~np.isnan(values))
        if held.size + raw.count(None) != len(raw):
            raise ValueError("cohort contains NaN")
        pct = _group_percentiles(group[held], values[held])
        for i, value in zip(held.tolist(), pct.tolist()):
            out[roster[i].id][indicator] = value
    return out
