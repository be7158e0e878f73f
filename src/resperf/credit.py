"""Fractional author credit.

Two conventions:

* ``alphabetical`` — byline order carries no information, every author gets 1/n.
* ``position_weighted`` — first and last authors dominate.  When first and
  last authors share a university: first 40%, last 40%, the remaining 20%
  split equally among the middle authors.  When they do not: first 30%,
  last 30%, second 15%, penultimate 15%, the remaining 10% split equally
  among the rest.

Named shares are handed out by role priority (first > last > second >
penultimate), one role per author; bylines too short to leave anyone in the
residual pool have their assigned shares renormalized to sum to 1 (so a
two-author same-university byline yields 0.5 each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .corpus import read_pairs, write_csv

ALPHABETICAL = "alphabetical"
POSITION_WEIGHTED = "position_weighted"
CONVENTIONS = (ALPHABETICAL, POSITION_WEIGHTED)

# Disciplines where byline position encodes contribution by default.
POSITION_WEIGHTED_UDAS = frozenset({"BIO", "MED", "AVS"})


class CreditError(ValueError):
    pass


def _positional_weights(n: int, shared_university: bool) -> list[float]:
    if shared_university:
        named = ((0, 0.40), (n - 1, 0.40))
        pool = 0.20
    else:
        named = ((0, 0.30), (n - 1, 0.30), (1, 0.15), (n - 2, 0.15))
        pool = 0.10
    weights = [0.0] * n
    taken: set[int] = set()
    for pos, share in named:
        if 0 <= pos < n and pos not in taken:
            weights[pos] = share
            taken.add(pos)
    rest = [i for i in range(n) if i not in taken]
    if rest:
        each = pool / len(rest)
        for i in rest:
            weights[i] = each
    else:
        total = sum(weights)
        weights = [w / total for w in weights]
    return weights


def byline_weights(n: int, convention: str, shared_university: bool = True) -> list[float]:
    """Credit weights for an n-author byline; always sums to 1."""
    if n <= 0:
        raise CreditError(f"byline must have at least one author, got {n}")
    if convention == ALPHABETICAL:
        return [1.0 / n] * n
    if convention == POSITION_WEIGHTED:
        return _positional_weights(n, shared_university)
    raise CreditError(f"unknown credit convention {convention!r}")


def fractional_contribution(convention: np.ndarray, shared: np.ndarray, n: np.ndarray,
                            position: np.ndarray) -> np.ndarray:
    """Credit share of many byline slots at once.

    Slot k is at ``position[k]`` of an ``n[k]``-author byline whose first and
    last authors do (``shared[k]``) or do not share a university, credited
    under ``CONVENTIONS[convention[k]]``.  The shares are read from a
    (convention, shared, n, position) table built with :func:`byline_weights`
    for the bylines present, so they equal its values exactly.
    """
    if not n.size:
        return np.zeros(0)
    if not ((0 <= position) & (position < n)).all():
        raise CreditError("byline position outside its byline")
    width = int(n.max()) + 1
    key = (convention.astype(np.int64) * 2 + shared) * width + n
    keys, which = np.unique(key, return_inverse=True)
    table: list[float] = []
    starts = []
    for code in keys.tolist():
        kind, length = divmod(code, width)
        starts.append(len(table))
        table.extend(byline_weights(length, CONVENTIONS[kind // 2], bool(kind % 2)))
    return np.asarray(table)[np.asarray(starts)[which.reshape(-1)] + position]


@dataclass(frozen=True)
class ConventionMap:
    """Resolves the credit convention for a field (SDS).

    Explicit per-SDS overrides win, then a forced global convention, then the
    discipline default (position-weighted for the life sciences, alphabetical
    elsewhere).
    """

    overrides: Mapping[str, str] = field(default_factory=dict)
    global_override: str | None = None

    def __post_init__(self):
        for sds, conv in self.overrides.items():
            if conv not in CONVENTIONS:
                raise CreditError(f"sds {sds!r}: unknown convention {conv!r}")
        if self.global_override is not None and self.global_override not in CONVENTIONS:
            raise CreditError(f"unknown convention {self.global_override!r}")

    def resolve(self, sds: str, uda: str | None = None) -> str:
        if sds in self.overrides:
            return self.overrides[sds]
        if self.global_override is not None:
            return self.global_override
        if uda is not None and uda.upper() in POSITION_WEIGHTED_UDAS:
            return POSITION_WEIGHTED
        return ALPHABETICAL


def load_convention_map(path, global_override: str | None = None) -> ConventionMap:
    """Two-column CSV (sds, convention)."""
    return ConventionMap(overrides=read_pairs(path, "sds", "convention", CONVENTIONS),
                         global_override=global_override)


def write_convention_map(path, conventions: Mapping[str, str]) -> None:
    write_csv(path, ["sds", "convention"], [list(conventions), list(conventions.values())])
