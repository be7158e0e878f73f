"""Record builders shared across test modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from resperf.corpus import UNIVERSITY_TYPES, Corpus, Roster, _ColumnBuffer, working_years
from resperf.indicators import INDICATORS
from resperf.regress import RegressionFrame


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
    doc_type: str
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
                     citations=4, doc_type="article", byline=(("P1", "U1"),)) -> Pub:
    return Pub(id, year, category, journal_if, citations, doc_type,
               tuple((a, u) for a, u in byline))


def make_corpus(pubs, dropped: int = 0) -> Corpus:
    """Corpus over the records in ``pubs``, in their order."""
    buf = _ColumnBuffer()
    for p in pubs:
        buf.append(p.id, p.year, p.subject_category,
                   math.nan if p.journal_if is None else p.journal_if, p.citations,
                   p.doc_type, [a for a, _ in p.byline], [u for _, u in p.byline])
    return Corpus(buf.columns(), dropped)


def records(corpus: Corpus) -> list[Pub]:
    """The publications of ``corpus`` as records, read from its stored columns
    (not the derived ``pub``, ``position`` and ``shared``)."""
    slots = [(corpus.authors[a], corpus.universities[u]) for a, u in
             zip(corpus.author.tolist(), corpus.university.tolist())]
    return [Pub(pid, year, corpus.categories[cat], None if math.isnan(jif) else jif,
                cites, corpus.doc_types[doc], tuple(slots[end - n:end]))
            for pid, year, cat, jif, cites, doc, n, end in zip(
                corpus.ids, corpus.year.tolist(), corpus.category.tolist(),
                corpus.impact.tolist(), corpus.citations.tolist(),
                corpus.doc_type.tolist(), corpus.n_authors.tolist(),
                np.cumsum(corpus.n_authors).tolist())]


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
    pubs = [
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
    return make_roster(profs), make_corpus(pubs)


def make_frame(rows) -> RegressionFrame:
    """Frame from (id, uda, age, seniority, gender, u1, u2, u3, {indicator:
    percentile}) rows; an indicator missing from a row's mapping is NaN."""
    return RegressionFrame(
        ids=np.array([r[0] for r in rows], dtype=str),
        uda=np.array([r[1] for r in rows], dtype=str),
        age=np.array([r[2] for r in rows], dtype=float),
        covariates=np.array([r[3:8] for r in rows], dtype=float).reshape(-1, 5),
        percentiles=np.array([[r[8].get(i, np.nan) for i in INDICATORS] for r in rows],
                             dtype=float).reshape(-1, len(INDICATORS)))
