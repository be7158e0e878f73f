"""Roster and publication ingestion plus census-date covariate derivation.

Rosters are CSV; publication corpora are CSV or JSON-lines (one object per
line).  Ingestion either returns fully validated records or fails with a
row-addressed error listing every problem found; publications go straight
into the columns of a :class:`Corpus`.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import operator
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

DAYS_PER_YEAR = 365.2425

UNIVERSITY_TYPES = ("public", "private", "polytechnic", "advanced_school")

# Document types dropped at ingest: editorial/abstract/reply material does not
# count as a research product.
DEFAULT_EXCLUDED_DOC_TYPES = frozenset({
    "editorial material",
    "conference abstract",
    "conference abstracts",
    "reply",
    "replies",
})

ROSTER_FIELDS = ("id", "gender", "birth_date", "appointment_date", "sds", "uda",
                 "university_type")
ROSTER_OPTIONAL_FIELDS = ("active_start", "active_end")

PUBLICATION_FIELDS = ("id", "year", "subject_category", "journal_if",
                      "citations", "doc_type", "byline")

# Largest citation count ingest accepts: counts above 2**53 would not be
# summed exactly in the float64 scaling means (nor fit the int64 column).
MAX_CITATIONS = 2 ** 53

# Minimum age at appointment, in whole years.
MIN_APPOINTMENT_AGE = 20

# Appointment dates within this many years of the census flag a professor as
# recently promoted.
RECENT_PROMOTION_YEARS = 8.0


class IngestError(ValueError):
    """Raised when an input file fails validation; carries row-addressed messages."""

    def __init__(self, source, problems: Sequence[str]):
        self.source = str(source)
        self.problems = list(problems)
        shown = "; ".join(self.problems[:8])
        extra = "" if len(self.problems) <= 8 else f" (+{len(self.problems) - 8} more)"
        super().__init__(f"{self.source}: {shown}{extra}")


@dataclass(frozen=True)
class Professor:
    id: str
    gender: str  # "male" | "female"
    birth_date: date
    appointment_date: date
    sds: str
    uda: str
    university_type: str
    active_span: tuple[date, date] | None = None


@dataclass(frozen=True)
class Covariates:
    """Professor covariates at a census date.

    ``age`` and ``seniority`` are exact day-difference/365.2425 values (these
    feed the regressions and are shown to 2 decimals in reports);
    ``age_years``/``seniority_years`` are the completed whole-year counts.
    ``t`` is the fractional-year overlap of the active span with the
    observation window.
    """

    age: float
    seniority: float
    age_years: int
    seniority_years: int
    gender_dummy: int   # 1 = male
    u1: int             # private university
    u2: int             # advanced school
    u3: int             # polytechnic
    t: float
    recently_promoted: bool


# Numeric corpus columns; every other column is a list of strings.
_COLUMN_DTYPES = {"year": np.int64, "category": np.int32, "citations": np.int64,
                  "impact": np.float64, "doc_type": np.int32, "n_authors": np.int32,
                  "author": np.int32, "university": np.int32}


class Corpus:
    """Validated publication corpus held as numpy columns.

    Per publication, in corpus order: ``ids``, ``year``, ``category`` (code
    into ``categories``), ``citations``, ``impact`` (journal impact factor,
    NaN where unknown; ingest rejects NaN and infinite input values, so NaN
    means only that), ``doc_type`` (code into ``doc_types``), ``n_authors``
    (byline length) and ``shared`` (first and last author share a
    university).  The authorship table has one row per byline slot, ordered
    by publication and then position: ``pub`` (publication index),
    ``position``, ``author`` (code into ``authors``) and ``university`` (code
    into ``universities``).

    Ingest and the simulator build the columns with :class:`_ColumnBuffer`
    or numpy and pass them, less the derived ``shared``, ``pub`` and
    ``position``, to the constructor.  Treated as read-only after
    construction.
    """

    def __init__(self, columns: dict, dropped: int = 0):
        for name, value in columns.items():
            dtype = _COLUMN_DTYPES.get(name)
            setattr(self, name, value if dtype is None else np.asarray(value, dtype))
        self.dropped = dropped
        ends = np.cumsum(self.n_authors, dtype=np.int64)
        starts = ends - self.n_authors
        self.pub = np.repeat(np.arange(len(self.ids)), self.n_authors)
        self.position = np.arange(self.pub.size) - starts[self.pub]
        self.shared = np.zeros(len(self.ids), dtype=bool)
        has = self.n_authors > 0
        self.shared[has] = self.university[starts[has]] == self.university[ends[has] - 1]

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def cells(self) -> tuple[np.ndarray, list[tuple[int, str]]]:
        """Each publication's (year, subject category) cell index, and the cells."""
        width = max(len(self.categories), 1)
        keys, cell = np.unique(self.year * width + self.category, return_inverse=True)
        return (cell.reshape(-1),
                [(int(k) // width, self.categories[int(k) % width]) for k in keys])

    def authored_by(self, author_ids: Sequence[str], window: tuple[int, int]
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The in-window authorships of ``author_ids``, in corpus order.

        Returns ``who``, each authorship's index into ``author_ids``, and
        ``rows``, its row in the authorship table.  Ids on no byline have none.
        """
        index = {author: i for i, author in enumerate(author_ids)}
        owner = np.array([index.get(a, -1) for a in self.authors], dtype=np.int64)
        who = owner[self.author]
        year = self.year[self.pub]
        rows = np.flatnonzero((who >= 0) & (window[0] <= year) & (year <= window[1]))
        return who[rows], rows


class _ColumnBuffer:
    """Growable corpus columns; strings are interned into codes as they arrive."""

    def __init__(self):
        self.ids: list[str] = []
        for name, dtype in _COLUMN_DTYPES.items():
            setattr(self, name, array(np.dtype(dtype).char))
        self.categories: dict[str, int] = {}
        self.doc_types: dict[str, int] = {}
        self.authors: dict[str, int] = {}
        self.universities: dict[str, int] = {}

    def append(self, pid: str, year: int, category: str, impact: float,
               citations: int, doc_type: str, authors: Sequence[str],
               universities: Sequence[str]) -> None:
        self.ids.append(pid)
        self.year.append(year)
        self.category.append(self.categories.setdefault(category, len(self.categories)))
        self.citations.append(citations)
        self.impact.append(impact)
        self.doc_type.append(self.doc_types.setdefault(doc_type, len(self.doc_types)))
        self.n_authors.append(len(authors))
        codes = self.authors
        self.author.extend([codes.setdefault(a, len(codes)) for a in authors])
        codes = self.universities
        self.university.extend([codes.setdefault(u, len(codes)) for u in universities])

    def columns(self) -> dict:
        """The columns for the :class:`Corpus` constructor."""
        vocabularies = ("categories", "doc_types", "authors", "universities")
        return {name: list(value) if name in vocabularies else value
                for name, value in vars(self).items()}


def exact_years(start: date, end: date) -> float:
    return (end - start).days / DAYS_PER_YEAR


def whole_years(start: date, end: date) -> int:
    """Completed years from start to end (anniversary arithmetic)."""
    years = end.year - start.year
    if (end.month, end.day) < (start.month, start.day):
        years -= 1
    return years


def _parse_date(text: str, what: str, problems: list[str], line: int) -> date | None:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        problems.append(f"line {line}: unparseable {what} {text!r}")
        return None


def _parse_gender(text: str, problems: list[str], line: int) -> str | None:
    token = text.strip().lower()
    if token in ("m", "male"):
        return "male"
    if token in ("f", "female"):
        return "female"
    problems.append(f"line {line}: gender must be M or F, got {text!r}")
    return None


def ingest_roster(path, sds_map: Mapping[str, str] | None = None) -> list[Professor]:
    """Read a professor roster CSV.

    ``sds_map`` optionally maps field (SDS) codes to their discipline (UDA);
    when given, every row's SDS must appear in it with a matching UDA.  Either
    every row parses or an :class:`IngestError` reports all offending rows.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ROSTER_FIELDS if c not in header]
        if missing:
            raise IngestError(path, [f"missing required columns: {', '.join(missing)}"])
        has_span = all(c in header for c in ROSTER_OPTIONAL_FIELDS)

        professors: list[Professor] = []
        problems: list[str] = []
        seen: dict[str, int] = {}
        sds_to_uda: dict[str, tuple[str, int]] = {}
        n_rows = 0
        for row in reader:
            n_rows += 1
            line = reader.line_num
            pid = (row.get("id") or "").strip()
            if not pid:
                problems.append(f"line {line}: empty id")
                continue
            if pid in seen:
                problems.append(
                    f"line {line}: duplicate id {pid!r} (first seen on line {seen[pid]})")
                continue
            seen[pid] = line

            gender = _parse_gender(row.get("gender") or "", problems, line)
            birth = _parse_date(row.get("birth_date") or "", "birth_date", problems, line)
            appointed = _parse_date(row.get("appointment_date") or "",
                                    "appointment_date", problems, line)
            sds = (row.get("sds") or "").strip()
            uda = (row.get("uda") or "").strip()
            utype = (row.get("university_type") or "").strip().lower()

            if not sds or not uda:
                problems.append(f"line {line}: empty sds or uda")
                continue
            if utype not in UNIVERSITY_TYPES:
                problems.append(
                    f"line {line}: unknown university_type {row.get('university_type')!r}")
                continue
            if sds_map is not None:
                if sds not in sds_map:
                    problems.append(f"line {line}: unknown SDS code {sds!r}")
                    continue
                if sds_map[sds] != uda:
                    problems.append(
                        f"line {line}: sds {sds!r} maps to uda {sds_map[sds]!r}, row says {uda!r}")
                    continue
            if sds in sds_to_uda and sds_to_uda[sds][0] != uda:
                problems.append(
                    f"line {line}: sds {sds!r} listed under uda {uda!r} but line "
                    f"{sds_to_uda[sds][1]} has uda {sds_to_uda[sds][0]!r}")
                continue
            sds_to_uda.setdefault(sds, (uda, line))

            if gender is None or birth is None or appointed is None:
                continue
            if whole_years(birth, appointed) < MIN_APPOINTMENT_AGE:
                problems.append(
                    f"line {line}: appointed at {whole_years(birth, appointed)} "
                    f"(before age {MIN_APPOINTMENT_AGE})")
                continue

            span = None
            if has_span:
                s_raw = (row.get("active_start") or "").strip()
                e_raw = (row.get("active_end") or "").strip()
                if s_raw or e_raw:
                    if not (s_raw and e_raw):
                        problems.append(
                            f"line {line}: active_start/active_end must be given together")
                        continue
                    s = _parse_date(s_raw, "active_start", problems, line)
                    e = _parse_date(e_raw, "active_end", problems, line)
                    if s is None or e is None:
                        continue
                    if s > e:
                        problems.append(f"line {line}: active_start after active_end")
                        continue
                    span = (s, e)

            professors.append(Professor(pid, gender, birth, appointed, sds, uda,
                                        utype, span))

    if problems:
        raise IngestError(path, problems)
    if n_rows == 0:
        logger.warning("%s: empty roster", path)
    return professors


def _whole_number(raw) -> int | None:
    """int of a CSV string or JSON number; None for fractions, bools and junk."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        return None


def _real_number(raw) -> float | None:
    """float of a CSV string or JSON number; None for bools and junk."""
    if isinstance(raw, bool):
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def _parse_byline(raw, problems: list[str], line: int
                  ) -> tuple[list[str], list[str]] | None:
    """Author and university ids of a byline, in byline order."""
    if isinstance(raw, str):
        tokens = [t for t in raw.split(";") if t.strip()]
    elif isinstance(raw, list):
        tokens = raw
    else:
        problems.append(f"line {line}: byline must be a string or a list, got {raw!r}")
        return None
    if not tokens:
        problems.append(f"line {line}: empty byline")
        return None
    authors, universities = [], []
    for token in tokens:
        author, _, univ = str(token).strip().partition("@")
        if not author or not univ or "@" in univ:
            problems.append(f"line {line}: malformed byline token {token!r}")
            return None
        authors.append(author)
        universities.append(univ)
    if len(set(authors)) < len(authors):
        twice = next(a for i, a in enumerate(authors) if a in authors[:i])
        problems.append(f"line {line}: author {twice!r} appears twice on the byline")
        return None
    return authors, universities


class _PublicationRows:
    """Validates publication rows one at a time into column buffers."""

    def __init__(self, excluded: set[str], roster_ids, strict: bool):
        self.excluded = excluded
        self.roster_ids = roster_ids if strict else None
        self.buffer = _ColumnBuffer()
        self.problems: list[str] = []
        self.seen: dict[str, int] = {}
        self.rows = 0
        self.dropped = 0

    def add(self, line: int, pid, year, category, journal_if, citations,
            doc_type, byline) -> None:
        self.rows += 1
        doc_type = str(doc_type or "").strip()
        if doc_type.lower() in self.excluded:
            self.dropped += 1
            return
        problems = self.problems
        pid = str(pid or "").strip()
        if not pid:
            problems.append(f"line {line}: empty publication id")
            return
        year_value = _whole_number(year)
        if year_value is None:
            problems.append(f"line {line}: unparseable year {year!r}")
            return
        if not 1900 <= year_value <= 2100:
            problems.append(f"line {line}: year {year_value} out of range")
            return
        category = str(category or "").strip()
        if not category:
            problems.append(f"line {line}: empty subject_category")
            return

        if journal_if is None or (isinstance(journal_if, str) and not journal_if.strip()):
            impact = math.nan
        else:
            impact = _real_number(journal_if)
            if impact is None:
                problems.append(f"line {line}: unparseable journal_if {journal_if!r}")
                return
            if not math.isfinite(impact):
                problems.append(f"line {line}: non-finite journal_if {journal_if!r}")
                return
            if impact < 0:
                problems.append(f"line {line}: negative journal_if {impact}")
                return

        cites = _whole_number(citations)
        if cites is None:
            problems.append(f"line {line}: unparseable citations {citations!r}")
            return
        if cites < 0:
            problems.append(f"line {line}: negative citations {cites}")
            return
        if cites > MAX_CITATIONS:
            problems.append(f"line {line}: citations {cites} out of range")
            return

        parsed = _parse_byline(byline or "", problems, line)
        if parsed is None:
            return
        authors, universities = parsed
        if self.roster_ids is not None:
            unknown = [a for a in authors if a not in self.roster_ids]
            if unknown:
                problems.append(f"line {line}: unknown author id(s) {', '.join(unknown)}")
                return
        if pid in self.seen:
            problems.append(f"line {line}: duplicate publication id {pid!r} "
                            f"(first seen on line {self.seen[pid]})")
            return
        self.seen[pid] = line
        self.buffer.append(pid, year_value, category, impact, cites, doc_type,
                           authors, universities)


def ingest_publications(path,
                        excluded_doc_types: Iterable[str] = DEFAULT_EXCLUDED_DOC_TYPES,
                        roster_ids=None,
                        strict: bool = False) -> Corpus:
    """Read a publication corpus (CSV, or JSON-lines for .jsonl/.ndjson/.json).

    Rows whose doc_type is in ``excluded_doc_types`` (case-insensitive) are
    dropped before validation and counted in ``Corpus.dropped``.  With
    ``strict`` every byline author id must appear in ``roster_ids``.  Rows
    are validated in file order, straight into the corpus columns, and the
    :class:`IngestError` lists every problem in line order.
    """
    path = Path(path)
    rows = _PublicationRows({t.strip().lower() for t in excluded_doc_types},
                            roster_ids, strict)
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    rows.problems.append(f"line {line_no}: invalid JSON ({exc.msg})")
                    continue
                if not isinstance(rec, dict):
                    rows.problems.append(
                        f"line {line_no}: expected a JSON object, got {type(rec).__name__}")
                    continue
                rows.add(line_no, *map(rec.get, PUBLICATION_FIELDS))
    else:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in PUBLICATION_FIELDS if c not in header]
            if missing:
                raise IngestError(path, [f"missing required columns: {', '.join(missing)}"])
            column = {name: i for i, name in enumerate(header)}
            fields = operator.itemgetter(*(column[f] for f in PUBLICATION_FIELDS))
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) < width:  # short rows read as missing values
                    row += [None] * (width - len(row))
                rows.add(reader.line_num, *fields(row))

    if rows.problems:
        raise IngestError(path, rows.problems)
    if not rows.rows:
        logger.warning("%s: empty publication file", path)
    return Corpus(rows.buffer.columns(), rows.dropped)


def _fmt_float(x: float | None) -> str:
    return "" if x is None or math.isnan(x) else repr(float(x))


def write_roster(path, roster: Iterable[Professor]) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROSTER_FIELDS + ROSTER_OPTIONAL_FIELDS)
        for p in roster:
            start, end = ("", "")
            if p.active_span is not None:
                start, end = p.active_span[0].isoformat(), p.active_span[1].isoformat()
            writer.writerow([p.id, "M" if p.gender == "male" else "F",
                             p.birth_date.isoformat(), p.appointment_date.isoformat(),
                             p.sds, p.uda, p.university_type, start, end])


def write_publications(path, corpus: Corpus) -> None:
    tokens = [f"{corpus.authors[a]}@{corpus.universities[u]}" for a, u in
              zip(corpus.author.tolist(), corpus.university.tolist())]
    ends = np.cumsum(corpus.n_authors).tolist()
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PUBLICATION_FIELDS)
        for pid, year, cat, jif, cites, doc, n, end in zip(
                corpus.ids, corpus.year.tolist(), corpus.category.tolist(),
                corpus.impact.tolist(), corpus.citations.tolist(),
                corpus.doc_type.tolist(), corpus.n_authors.tolist(), ends):
            writer.writerow([pid, year, corpus.categories[cat], _fmt_float(jif),
                             cites, corpus.doc_types[doc], ";".join(tokens[end - n:end])])


def load_sds_map(path) -> dict[str, str]:
    """Two-column CSV mapping field (SDS) codes to discipline (UDA) codes."""
    path = Path(path)
    mapping: dict[str, str] = {}
    problems: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader, start=1):
            if not row or (i == 1 and row[0].strip().lower() == "sds"):
                continue
            if len(row) < 2 or not row[0].strip() or not row[1].strip():
                problems.append(f"line {i}: expected 'sds,uda'")
                continue
            sds, uda = row[0].strip(), row[1].strip()
            if sds in mapping and mapping[sds] != uda:
                problems.append(f"line {i}: sds {sds!r} mapped to two udas")
                continue
            mapping[sds] = uda
    if problems:
        raise IngestError(path, problems)
    return mapping


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


def derive_covariates(professor: Professor, census_date: date,
                      window: tuple[int, int]) -> Covariates:
    """Covariates at the census date: exact and whole-year age/seniority,
    regression dummies, and working years t inside the window."""
    if census_date <= professor.birth_date:
        raise ValueError(f"{professor.id}: census date before birth")
    if census_date < professor.appointment_date:
        raise ValueError(f"{professor.id}: census date before appointment")

    age = exact_years(professor.birth_date, census_date)
    seniority = exact_years(professor.appointment_date, census_date)
    t = working_years(professor.active_span, window)
    if t <= 0:
        raise ValueError(f"{professor.id}: no working years inside window {window}")

    utype = professor.university_type
    return Covariates(
        age=age,
        seniority=seniority,
        age_years=whole_years(professor.birth_date, census_date),
        seniority_years=whole_years(professor.appointment_date, census_date),
        gender_dummy=1 if professor.gender == "male" else 0,
        u1=1 if utype == "private" else 0,
        u2=1 if utype == "advanced_school" else 0,
        u3=1 if utype == "polytechnic" else 0,
        t=t,
        recently_promoted=seniority < RECENT_PROMOTION_YEARS,
    )
