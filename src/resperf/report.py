"""Table and distribution reports.

Regression tables print one column per group with cells in the
"estimate (SE)" style, an "[AME]" suffix when a marginal effect exists, and
"-" for terms absent from a column's model.  Numbers use up to three decimals
with trailing zeros trimmed and thousands separators (so 1.09 prints as
"1.09", 1087.551 as "1,087.551"); the pseudo-R2 row uses four decimals and
percentages two.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Roster, csv_text, exact_years, whole_years
from .regress import FitResult

logger = logging.getLogger(__name__)

ABSENT = "-"

# Most bins a histogram may have.  Bins are built one per width between the
# smallest and largest value, so a tiny width would build billions.
MAX_BINS = 10_000

# Row order of the rendered regression table.
TERM_ROWS = ("Intercept", "Age", "Age^2", "Age^3", "Seniority", "Gender",
             "U3", "U1", "U2")
TERM_LABELS = {
    "Intercept": "Intercept",
    "Age": "Age",
    "Age^2": "Age²",
    "Age^3": "Age³",
    "Seniority": "Seniority",
    "Gender": "Gender",
    "U3": "Polytechnic",
    "U1": "Private",
    "U2": "Advanced Studies",
}
PSEUDO_R2_LABEL = "Pseudo R-squared"
N_LABEL = "N"

APPOINTMENT_EARLY_BOUND = 41  # strictly before, whole years
APPOINTMENT_LATE_BOUND = 55   # strictly after, whole years


def format_number(value: float, decimals: int = 3) -> str:
    """Thousands-separated, at most ``decimals`` decimals, trailing zeros trimmed."""
    if value != value:  # NaN
        return ABSENT
    text = f"{value:,.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def format_cell(coefficient: float, se: float, ame: float | None = None) -> str:
    cell = f"{format_number(coefficient)} ({format_number(se)})"
    if ame is not None:
        cell += f" [{format_number(ame)}]"
    return cell


def _table_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    def fmt_line(cells):
        return "  ".join(str(c).ljust(w) if i == 0 else str(c).rjust(w)
                         for i, (c, w) in enumerate(zip(cells, widths))).rstrip()
    lines.append(fmt_line(header))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt_line(row))
    return "\n".join(lines) + "\n"


def _render(header, rows, fmt: str) -> str:
    if fmt == "text":
        return _table_text(header, rows)
    if fmt == "csv":
        return "".join(csv_text(header, list(zip(*rows)), "\n"))
    raise ValueError(f"unknown format {fmt!r}")


def regression_table(fits: Mapping[str, FitResult], fmt: str = "text") -> str:
    """One column per fitted group, in the mapping's order.

    All fits must have converged; render unconverged models separately or not
    at all.
    """
    if not fits:
        raise ValueError("no fits to render")
    for group, fit in fits.items():
        if not fit.converged:
            raise ValueError(f"group {group!r}: fit did not converge")

    header = [""] + list(fits.keys())
    rows = []
    for term in TERM_ROWS:
        row = [TERM_LABELS[term]]
        for fit in fits.values():
            if term in fit.coefficients:
                row.append(format_cell(fit.coefficients[term],
                                       fit.robust_se.get(term, math.nan), fit.ame.get(term)))
            else:
                row.append(ABSENT)
        rows.append(row)
    rows.append([PSEUDO_R2_LABEL] + [format_number(f.pseudo_r2, 4) for f in fits.values()])
    rows.append([N_LABEL] + [f"{f.n:,d}" for f in fits.values()])
    return _render(header, rows, fmt)


def descriptive_table(roster: Roster,
                      covariates: Mapping[str, np.ndarray],
                      inactive: np.ndarray,
                      population_totals: Mapping[str, int] | None = None,
                      fmt: str = "text") -> str:
    """Headcounts, coverage, mean ages and inactivity by discipline, plus an
    appointment-age breakdown (share appointed strictly before 41 and strictly
    after 55, in whole years).  ``inactive`` flags each professor without
    window publications.  Returns both tables in one string."""
    if not len(roster):
        raise ValueError("empty roster")
    groups = sorted(((roster.uda_names[c], roster.uda == c)
                     for c in set(roster.uda.tolist())), key=lambda g: g[0])
    for uda in population_totals or ():
        if uda not in {name for name, _ in groups}:
            logger.warning("population total for %r has no rostered professors; "
                           "row omitted", uda)
    groups.append(("Total", np.ones(len(roster), dtype=bool)))
    app_ages = exact_years(roster.birth, roster.appointed)
    app_years = whole_years(roster.birth, roster.appointed)

    def stats(members: np.ndarray) -> list[str]:
        n = int(members.sum())
        if population_totals:
            present, counts = np.unique(roster.uda[members], return_counts=True)
            total = sum(population_totals.get(roster.uda_names[c], k)
                        for c, k in zip(present.tolist(), counts.tolist()))
        else:
            total = n
        coverage = 100.0 * n / total if total else 100.0
        return [str(n), f"{coverage:.2f}", f"{np.mean(covariates['age'][members]):.2f}",
                f"{np.mean(app_ages[members]):.2f}",
                f"{100.0 * int(inactive[members].sum()) / n:.2f}"]

    def appointment_shares(members: np.ndarray) -> list[str]:
        n = int(members.sum())
        early = int((app_years[members] < APPOINTMENT_EARLY_BOUND).sum())
        late = int((app_years[members] > APPOINTMENT_LATE_BOUND).sum())
        return [f"{100.0 * early / n:.2f}", f"{100.0 * late / n:.2f}"]

    header = ["UDA", "Professors", "Coverage %", "Mean age", "Mean age at appointment",
              "Inactive %"]
    header2 = ["UDA", f"Appointed before {APPOINTMENT_EARLY_BOUND} %",
               f"Appointed after {APPOINTMENT_LATE_BOUND} %"]
    rows = [[uda] + stats(members) for uda, members in groups]
    rows2 = [[uda] + appointment_shares(members) for uda, members in groups]
    return _render(header, rows, fmt) + "\n" + _render(header2, rows2, fmt)


def distribution_histogram(values: Sequence[float], bin_width: float
                           ) -> list[tuple[float, int, float]]:
    """Left-closed bins [left, left + width); (left, count, share) rows.

    Bin edges align to multiples of the width; shares sum to 1.  A width that
    would give more than MAX_BINS bins raises ValueError.
    """
    if len(values) == 0:
        raise ValueError("no values to bin")
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("values contain NaN")
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny width overflows
        left = np.floor(arr / bin_width)  # each value's bin, in widths from 0
        fits = left.max() - left.min() < MAX_BINS and np.abs(left).max() < 2.0 ** 53
    if not fits:
        raise ValueError(f"bin width {bin_width!r} is too small for values from "
                         f"{arr.min()!r} to {arr.max()!r}: at most {MAX_BINS} bins")
    idx = left.astype(np.int64)
    first = int(idx.min())
    counts = np.bincount(idx - first)
    return list(zip((np.arange(first, first + counts.size) * bin_width).tolist(),
                    counts.tolist(), (counts / len(arr)).tolist()))


def histogram_csv(bins: Iterable[tuple[float, int, float]]) -> str:
    left, count, share = zip(*bins)
    return "".join(csv_text(["bin_left", "count", "share"],
                            [map(float, left), count, map(float, share)], "\n"))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Sample standard deviation over mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two values")
    mean = float(arr.mean())
    if mean == 0:
        raise ValueError("undefined for zero mean")
    return float(arr.std(ddof=1)) / mean


def group_coefficient_of_variation(groups: Mapping[str, Sequence[float]]
                                   ) -> dict[str, float]:
    return {name: coefficient_of_variation(vals) for name, vals in sorted(groups.items())
            if len(vals) >= 2 and float(np.mean(vals)) != 0.0}
