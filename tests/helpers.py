"""Record builders shared across test modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from resperf.corpus import (COAUTHOR_NAME, UNIVERSITY_TYPES, Corpus, Roster, working_years,
                            write_publications)
from resperf.indicators import INDICATORS
from resperf.cohort import _group_percentiles
from resperf.regress import RegressionFrame, _min_aic, fit_fractional_logit
from resperf.report import ABSENT


@dataclass(frozen=True)
class Prof:
    """One professor as a record; ``span`` is the (start, end) employment span."""
    id: str
    gender: str  # "male" | "female"
    birth_date: date
    appointment_date: date
    sds: str
    uda: str
    university_type: str
    span: tuple[date, date] | None = None


@dataclass(frozen=True)
class Pub:
    """One publication as a record; ``byline`` holds (author, university) pairs."""
    id: str
    year: int
    subject_category: str
    journal_if: float | None
    citations: int
    byline: tuple[tuple[str, str], ...]


def make_professor(id="P1", gender="male", birth=date(1950, 6, 30),
                   appointed=date(1985, 3, 1), sds="MAT/01", uda="MAT",
                   university_type="public", span=None) -> Prof:
    return Prof(id, gender, birth, appointed, sds, uda, university_type, span)


def make_roster(profs) -> Roster:
    """Roster over the records in ``profs``, in their order."""
    profs = list(profs)
    sds: dict[str, int] = {}
    uda: dict[str, int] = {}
    return Roster(
        ids=[p.id for p in profs], male=[p.gender == "male" for p in profs],
        birth=[p.birth_date.toordinal() for p in profs],
        appointed=[p.appointment_date.toordinal() for p in profs],
        sds=[sds.setdefault(p.sds, len(sds)) for p in profs], sds_names=list(sds),
        uda=[uda.setdefault(p.uda, len(uda)) for p in profs], uda_names=list(uda),
        utype=[UNIVERSITY_TYPES.index(p.university_type) for p in profs],
        active_start=[p.span[0].toordinal() if p.span else 0 for p in profs],
        active_end=[p.span[1].toordinal() if p.span else 0 for p in profs])


def years(roster: Roster, window: tuple[int, int]) -> np.ndarray:
    """Each rostered professor's working years in ``window``."""
    return working_years(roster.active_start, roster.active_end, window)


def professors(roster: Roster) -> list[Prof]:
    """The professors of ``roster`` as records, read from its columns."""
    day = date.fromordinal
    return [Prof(pid, "male" if male else "female", day(birth), day(appointed),
                 roster.sds_names[sds], roster.uda_names[uda], UNIVERSITY_TYPES[utype],
                 (day(start), day(end)) if start else None)
            for pid, male, birth, appointed, sds, uda, utype, start, end in zip(
                roster.ids, roster.male.tolist(), roster.birth.tolist(),
                roster.appointed.tolist(), roster.sds.tolist(), roster.uda.tolist(),
                roster.utype.tolist(), roster.active_start.tolist(),
                roster.active_end.tolist())]


def plain(columns) -> dict[str, list]:
    """Score or covariate columns as lists, NaN as None, for ``==`` comparisons."""
    return {name: [None if isinstance(v, float) and math.isnan(v) else v
                   for v in np.asarray(values).tolist()]
            for name, values in columns.items()}


def make_publication(id="W1", year=2008, category="MAT/01", journal_if=1.5,
                     citations=4, byline=(("P1", "U1"),)) -> Pub:
    return Pub(id, year, category, journal_if, citations, tuple((a, u) for a, u in byline))


def make_corpus(pubs, roster_ids, dropped: int = 0) -> Corpus:
    """Corpus over the records in ``pubs``, in their order, each byline
    author coded by its index in ``roster_ids``, or -1 if not there."""
    pubs = list(pubs)
    rows = {pid: i for i, pid in enumerate(roster_ids)}
    codes: dict[str, dict[str, int]] = {"categories": {}, "universities": {}}

    def code(name: str, values) -> list[int]:
        return [codes[name].setdefault(v, len(codes[name])) for v in values]

    slots = [slot for p in pubs for slot in p.byline]
    return Corpus({
        "ids": [p.id for p in pubs], "year": [p.year for p in pubs],
        "category": code("categories", (p.subject_category for p in pubs)),
        "citations": [p.citations for p in pubs],
        "impact": [math.nan if p.journal_if is None else p.journal_if for p in pubs],
        "n_authors": [len(p.byline) for p in pubs],
        "author": [rows.get(a, -1) for a, _ in slots],
        "university": code("universities", (u for _, u in slots)),
        **{name: list(c) for name, c in codes.items()}}, dropped)


def unrostered(pubs, roster_ids) -> list[Pub]:
    """The records with every byline author not in ``roster_ids`` read as
    None, as :func:`records` reads them back."""
    ids = set(roster_ids)
    return [replace(p, byline=tuple((a if a in ids else None, u) for a, u in p.byline))
            for p in pubs]


def write_pubs(path, pubs, roster_ids) -> None:
    """Write the records in ``pubs`` as a publication CSV, through
    ``write_publications``; their authors not in ``roster_ids`` must be
    X1, X2, ... in corpus order, the names it gives them."""
    others = [a for p in pubs for a, _ in p.byline if a not in roster_ids]
    assert others == [COAUTHOR_NAME.format(k + 1) for k in range(len(others))], others
    write_publications(path, make_corpus(pubs, roster_ids), roster_ids)


def records(corpus: Corpus, roster_ids) -> list[Pub]:
    """The publications of ``corpus`` as records, read from its stored columns
    (not the derived ``pub``, ``position`` and ``shared``); a byline author
    is its id in ``roster_ids``, or None if not rostered."""
    slots = [(roster_ids[a] if a >= 0 else None, corpus.universities[u]) for a, u in
             zip(corpus.author.tolist(), corpus.university.tolist())]
    return [Pub(pid, year, corpus.categories[cat], None if math.isnan(jif) else jif,
                cites, tuple(slots[end - n:end]))
            for pid, year, cat, jif, cites, n, end in zip(
                corpus.ids, corpus.year.tolist(), corpus.category.tolist(),
                corpus.impact.tolist(), corpus.citations.tolist(),
                corpus.n_authors.tolist(), np.cumsum(corpus.n_authors).tolist())]


def build_tiny_world() -> tuple[Roster, Corpus]:
    """Four professors in two fields, twelve publications (one pre-window)."""
    profs = [
        make_professor("P1", sds="MAT/01", uda="MAT"),
        make_professor("P2", gender="female", birth=date(1955, 2, 10),
                       appointed=date(1990, 10, 1), sds="MAT/01", uda="MAT",
                       university_type="polytechnic"),
        make_professor("P3", birth=date(1948, 12, 1), appointed=date(1980, 1, 7),
                       sds="BIO/05", uda="BIO", university_type="private"),
        make_professor("P4", gender="female", birth=date(1962, 7, 23),
                       appointed=date(2004, 11, 1), sds="BIO/05", uda="BIO"),
    ]
    return make_roster(profs), make_corpus(tiny_publications(), [p.id for p in profs])


def tiny_publications() -> list[Pub]:
    """The tiny world's publications; its co-authors are X1..X13 in corpus order."""
    return [
        make_publication("W01", 2006, "MAT/01", 1.2, 10, byline=(("P1", "U1"), ("X1", "U2"))),
        make_publication("W02", 2007, "MAT/01", 0.8, 0, byline=(("P1", "U1"),)),
        make_publication("W03", 2008, "MAT/01", 1.9, 3, byline=(("P2", "U3"), ("X2", "U9"))),
        make_publication("W04", 2008, "MAT/01", 1.1, 5, byline=(("P1", "U1"), ("P2", "U3"), ("X3", "U4"))),
        make_publication("W05", 2010, "MAT/01", 2.4, 1, byline=(("X4", "U5"), ("P2", "U3"))),
        make_publication("W06", 2006, "BIO/05", 3.4, 12, byline=(("P3", "U6"), ("X5", "U7"), ("X6", "U6"))),
        make_publication("W07", 2007, "BIO/05", 2.2, 7, byline=(("X7", "U8"), ("P3", "U6"), ("X8", "U6"))),
        make_publication("W08", 2008, "BIO/05", 4.0, 0, byline=(("P3", "U6"), ("P4", "U2"))),
        make_publication("W09", 2009, "BIO/05", 1.7, 2, byline=(("P4", "U2"), ("X9", "U2"))),
        make_publication("W10", 2009, "BIO/05", 2.9, 9, byline=(("X10", "U3"), ("X11", "U3"), ("P4", "U2"))),
        make_publication("W11", 2010, "BIO/05", 3.1, 4, byline=(("P3", "U6"), ("X12", "U9"), ("X13", "U6"), ("P4", "U2"))),
        make_publication("W12", 2005, "BIO/05", 2.0, 30, byline=(("P3", "U6"),)),
    ]


def make_frame(rows) -> RegressionFrame:
    """Frame from (uda, age, seniority, gender, u1, u2, u3, {indicator:
    percentile}) rows; an indicator missing from a row's mapping is NaN."""
    return RegressionFrame(
        uda=np.array([r[0] for r in rows], dtype=str),
        age=np.array([r[1] for r in rows], dtype=float),
        covariates=np.array([r[2:7] for r in rows], dtype=float).reshape(-1, 5),
        percentiles=np.array([[r[7].get(i, np.nan) for i in INDICATORS] for r in rows],
                             dtype=float).reshape(-1, len(INDICATORS)))


def percentile_rank(values) -> list[float]:
    """Midrank percentiles of one cohort, by the grouped ranking
    ``cohort_percentiles`` runs."""
    return _group_percentiles(np.zeros(len(values), dtype=np.int64),
                              np.asarray(values, dtype=float)).tolist()


def select_age_degree(builder, max_degree: int = 3) -> int:
    """The AIC-selected degree of ``builder(degree)``'s (y, X) fits."""
    return _min_aic(lambda degree: (fit_fractional_logit(*builder(degree)), None),
                    max_degree)[0]


def parse_cell(cell: str) -> tuple[float, float | None, float | None]:
    """Invert ``report.format_cell`` within printed precision."""
    text = cell.strip()
    if text == ABSENT:
        raise ValueError("absent cell")
    ame = None
    if "[" in text:
        text, ame_part = text.split("[", 1)
        ame = float(ame_part.rstrip("] ").replace(",", ""))
    se = None
    if "(" in text:
        text, se_part = text.split("(", 1)
        se = float(se_part.rstrip(") ").replace(",", ""))
    coefficient = float(text.strip().replace(",", ""))
    return coefficient, se, ame
