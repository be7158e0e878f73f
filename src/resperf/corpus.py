"""Input readers, roster and publication ingestion, and census-date covariates.

Every file resperf reads goes through :func:`csv_rows`, :func:`json_rows`,
:func:`read_pairs` or :func:`read_json_object`, which fail with an
:class:`IngestError` naming the file.  Rosters are CSV; publication corpora
are CSV or JSON-lines (one object per line).  Ingestion either returns fully
validated columns or fails with a row-addressed error listing every problem
found: a roster goes straight into the columns of a :class:`Roster`,
publications into those of a :class:`Corpus`.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
import operator
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
        super().__init__(f"{self.source}: " + "; ".join(self.problems))


def csv_rows(path, required: Sequence[str], optional: Sequence[str] = ()) -> Iterator:
    """(line, fields in ``required + optional`` order) for each row of a CSV
    file with a header line.

    Blank lines are skipped; the cells of a short row and of an absent
    optional column read as "".  A missing required column raises
    :class:`IngestError`.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestError(path, [f"line 1: missing column(s) {', '.join(missing)}"])
        width = len(header)
        column = {name: i for i, name in enumerate(header)}
        # absent optional columns read the "" appended after the last cell
        pick = operator.itemgetter(*(column.get(c, width) for c in (*required, *optional)))
        for row in reader:
            if row:
                if len(row) != width:
                    row = (row + [""] * width)[:width]
                row.append("")
                yield reader.line_num, pick(row)


def json_rows(path, fields: Sequence[str], problems: list[str]) -> Iterator:
    """(line, values of ``fields``, None where absent) for each object line of
    a JSON-lines file.

    Blank lines are skipped; a line that is not a JSON object adds a problem
    to ``problems``, in line order with the caller's own.
    """
    with Path(path).open(encoding="utf-8") as fh:
        for line, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"line {line}: invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                problems.append(
                    f"line {line}: expected a JSON object, got {type(record).__name__}")
                continue
            yield line, map(record.get, fields)


def read_pairs(path, key_name: str, value_name: str,
               choices: Sequence[str] | None = None) -> dict[str, str]:
    """Key-to-value map of a two-column CSV file, such as (sds, uda).

    A first row whose key cell is ``key_name`` is a header.  With ``choices``
    each value is lower-cased and must be one of them.  Raises
    :class:`IngestError` naming every malformed row and every key given two
    values.
    """
    path = Path(path)
    mapping: dict[str, str] = {}
    problems: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row or (line == 1 and row[0].strip().lower() == key_name):
                continue
            key = row[0].strip()
            value = row[1].strip() if len(row) > 1 else ""
            if choices is not None:
                value = value.lower()
            if len(row) < 2 or not key or (choices is None and not value):
                problems.append(f"line {line}: expected '{key_name},{value_name}'")
            elif choices is not None and value not in choices:
                problems.append(f"line {line}: unknown {value_name} {row[1]!r}")
            elif mapping.setdefault(key, value) != value:
                problems.append(f"line {line}: {key_name} {key!r} mapped to two {value_name}s")
    if problems:
        raise IngestError(path, problems)
    return mapping


def read_json_object(path, build: Callable[[dict], object] = dict):
    """``build`` of the JSON object a file holds.

    Invalid JSON, any value but an object, and a ValueError from ``build``
    raise :class:`IngestError` naming the file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IngestError(path, [f"line {exc.lineno}: invalid JSON ({exc.msg})"]) from None
    if not isinstance(data, dict):
        raise IngestError(path, [f"expected a JSON object, got {type(data).__name__}"])
    try:
        return build(data)
    except ValueError as exc:
        raise IngestError(path, [str(exc)]) from None


def json_number(value, what: str, whole: bool = False):
    """``value`` if it is a finite JSON number, a whole one with ``whole``;
    else a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)) \
            or isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be a {'whole' if whole else 'finite'} number, "
                         f"got {value!r}")
    return value


# Roster columns and their dtypes; ``ids`` and the name lists stay Python lists.
_ROSTER_DTYPES = {"male": bool, "birth": np.int64, "appointed": np.int64,
                  "sds": np.int32, "uda": np.int32, "utype": np.int32,
                  "active_start": np.int64, "active_end": np.int64}


@dataclass(eq=False)
class Roster:
    """Professor roster held as columns, one row per professor in roster order.

    Dates are day ordinals (``date.toordinal``).  ``sds`` and ``uda`` are
    codes into ``sds_names`` and ``uda_names``, ``utype`` a code into
    ``UNIVERSITY_TYPES``.  ``active_start``/``active_end`` bound each
    employment span; both are 0 where none is given, meaning employed
    throughout.  ``lines`` holds each row's line in the roster file, when
    read from one, and ``source`` names the roster in error messages.
    Ingest and the simulator build it directly; treated as read-only.
    """

    ids: list[str]
    male: np.ndarray
    birth: np.ndarray
    appointed: np.ndarray
    sds: np.ndarray
    sds_names: list[str]
    uda: np.ndarray
    uda_names: list[str]
    utype: np.ndarray
    active_start: np.ndarray
    active_end: np.ndarray
    lines: np.ndarray | None = None
    source: str = "roster"

    def __post_init__(self):
        for name, dtype in _ROSTER_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype))
        if self.lines is not None:
            self.lines = np.asarray(self.lines, np.int64)

    def __len__(self) -> int:
        return len(self.ids)


class NameSequence(Sequence):
    """Read-only names: the ``head`` list, then ``pattern.format(k)`` for k =
    1..``count``, each formatted only when read.

    An index returns a name, a slice a list, iteration maps the pattern; it
    equals the list of its names.  The simulator names its publications and
    co-authors with it, so a cohort nobody writes out builds no tail names.
    """

    def __init__(self, head: list[str], pattern: str, count: int):
        self.head, self.pattern, self.count = head, pattern, count

    def __len__(self) -> int:
        return len(self.head) + self.count

    def _name(self, i: int) -> str:
        return self.head[i] if i < len(self.head) else self.pattern.format(i - len(self.head) + 1)

    def __getitem__(self, index):
        at = range(len(self))[index]  # bounds-checked, negative indices resolved
        return [self._name(i) for i in at] if isinstance(index, slice) else self._name(at)

    def __iter__(self) -> Iterator[str]:
        return itertools.chain(self.head, map(self.pattern.format, range(1, self.count + 1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, NameSequence)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


# Numeric corpus columns; every other column is a list of strings or a NameSequence.
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
    ``position``, to the constructor; ingest also passes ``author_codes``,
    the author-to-code map it built.  The simulator codes roster authors
    first, in roster order, and passes ``ids`` and ``authors`` as
    :class:`NameSequence`.  Treated as read-only after construction.
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
    def author_codes(self) -> dict[str, int]:
        """Each author's code; ingest passes in the map it built."""
        return {author: code for code, author in enumerate(self.authors)}

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
        n = len(author_ids)
        if self.authors[:n] == list(author_ids):  # roster-first codes, as the simulator's
            codes = np.arange(n)
        else:
            codes = np.array([self.author_codes.get(a, -1) for a in author_ids],
                             dtype=np.int64)
        known = np.flatnonzero(codes >= 0)
        owner = np.full(len(self.authors), -1, dtype=np.int64)
        owner[codes[known]] = known
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
        return {**{name: list(value) if name in vocabularies else value
                   for name, value in vars(self).items()},
                "author_codes": self.authors}


_EPOCH = date(1970, 1, 1).toordinal()


def _calendar(ordinals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of each day ordinal."""
    days = (np.asarray(ordinals, dtype=np.int64) - _EPOCH).astype("datetime64[D]")
    years, months = days.astype("datetime64[Y]"), days.astype("datetime64[M]")
    return (years.astype(np.int64) + 1970, (months - years).astype(np.int64) + 1,
            (days - months).astype(np.int64) + 1)


def exact_years(start, end) -> np.ndarray:
    """Day count from start to end (day ordinals) over DAYS_PER_YEAR."""
    return (end - start) / DAYS_PER_YEAR


def whole_years(start, end) -> np.ndarray:
    """Completed years from each start to each end (day ordinals), by anniversary."""
    y0, m0, d0 = _calendar(start)
    y1, m1, d1 = _calendar(end)
    return y1 - y0 - (m1 * 32 + d1 < m0 * 32 + d0)


def _parse_date(text: str, what: str, problems: list[str], line: int) -> date | None:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        problems.append(f"line {line}: unparseable {what} {text!r}")
        return None


def _completed_years(start: date, end: date) -> int:
    return end.year - start.year - ((end.month, end.day) < (start.month, start.day))


def _parse_gender(text: str, problems: list[str], line: int) -> bool | None:
    """True for male, False for female."""
    token = text.strip().lower()
    if token in ("m", "male"):
        return True
    if token in ("f", "female"):
        return False
    problems.append(f"line {line}: gender must be M or F, got {text!r}")
    return None


def ingest_roster(path, sds_map: Mapping[str, str] | None = None) -> Roster:
    """Read a professor roster CSV.

    ``sds_map`` optionally maps field (SDS) codes to their discipline (UDA);
    when given, every row's SDS must appear in it with a matching UDA.  Either
    every row parses or an :class:`IngestError` reports all offending rows.
    """
    path = Path(path)
    kept: list[tuple] = []
    sds_codes: dict[str, int] = {}
    uda_codes: dict[str, int] = {}
    problems: list[str] = []
    seen: dict[str, int] = {}
    sds_to_uda: dict[str, tuple[str, int]] = {}
    n_rows = 0
    for line, (pid, gender, birth, appointed, sds, uda, utype_raw, s_raw, e_raw) in \
            csv_rows(path, ROSTER_FIELDS, ROSTER_OPTIONAL_FIELDS):
        n_rows += 1
        pid = pid.strip()
        if not pid:
            problems.append(f"line {line}: empty id")
            continue
        if pid in seen:
            problems.append(
                f"line {line}: duplicate id {pid!r} (first seen on line {seen[pid]})")
            continue
        seen[pid] = line
        male = _parse_gender(gender, problems, line)
        birth = _parse_date(birth, "birth_date", problems, line)
        appointed = _parse_date(appointed, "appointment_date", problems, line)
        sds, uda, utype = sds.strip(), uda.strip(), utype_raw.strip().lower()
        s_raw, e_raw = s_raw.strip(), e_raw.strip()
        # after any parse problems above, the first failing check names the row
        if not sds or not uda:
            problem = "empty sds or uda"
        elif utype not in UNIVERSITY_TYPES:
            problem = f"unknown university_type {utype_raw!r}"
        elif sds_map is not None and sds not in sds_map:
            problem = f"unknown SDS code {sds!r}"
        elif sds_map is not None and sds_map[sds] != uda:
            problem = f"sds {sds!r} maps to uda {sds_map[sds]!r}, row says {uda!r}"
        elif (first := sds_to_uda.setdefault(sds, (uda, line)))[0] != uda:
            problem = (f"sds {sds!r} listed under uda {uda!r} but line {first[1]} "
                       f"has uda {first[0]!r}")
        elif male is None or birth is None or appointed is None:
            continue
        elif (age := _completed_years(birth, appointed)) < MIN_APPOINTMENT_AGE:
            problem = f"appointed at {age} (before age {MIN_APPOINTMENT_AGE})"
        elif bool(s_raw) != bool(e_raw):
            problem = "active_start/active_end must be given together"
        elif s_raw and None in (span := (_parse_date(s_raw, "active_start", problems, line),
                                         _parse_date(e_raw, "active_end", problems, line))):
            continue
        elif s_raw and span[0] > span[1]:
            problem = "active_start after active_end"
        else:
            kept.append((pid, male, birth.toordinal(), appointed.toordinal(),
                         sds_codes.setdefault(sds, len(sds_codes)),
                         uda_codes.setdefault(uda, len(uda_codes)),
                         UNIVERSITY_TYPES.index(utype),
                         *((span[0].toordinal(), span[1].toordinal()) if s_raw else (0, 0)),
                         line))
            continue
        problems.append(f"line {line}: {problem}")

    if problems:
        raise IngestError(path, problems)
    if n_rows == 0:
        logger.warning("%s: empty roster", path)
    ids, male, birth, appointed, sds, uda, utype, start, end, lines = \
        map(list, zip(*kept)) if kept else [[]] * 10
    return Roster(ids, male, birth, appointed, sds, list(sds_codes), uda,
                  list(uda_codes), utype, start, end, np.array(lines, dtype=np.int64),
                  str(path))


def _whole_number(raw) -> int | None:
    """int of a CSV string or JSON number; None for fractions, bools and junk."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        return None


def _real_number(raw, finite: bool = False) -> float | None:
    """float of a CSV string or JSON number; None for bools and junk, and with
    ``finite`` for NaN and infinities."""
    if isinstance(raw, bool):
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return None if finite and not math.isfinite(value) else value


def _parse_byline(raw) -> tuple[list[str], list[str]] | str:
    """Author and university ids of a byline, in byline order, or its problem."""
    if isinstance(raw, str):
        tokens = [t for t in raw.split(";") if t.strip()]
    elif isinstance(raw, list):
        tokens = raw
    else:
        return f"byline must be a string or a list, got {raw!r}"
    if not tokens:
        return "empty byline"
    authors, universities = [], []
    for token in tokens:
        author, _, univ = str(token).strip().partition("@")
        if not author or not univ or "@" in univ:
            return f"malformed byline token {token!r}"
        authors.append(author)
        universities.append(univ)
    if len(set(authors)) < len(authors):
        twice = next(a for i, a in enumerate(authors) if a in authors[:i])
        return f"author {twice!r} appears twice on the byline"
    return authors, universities


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
    excluded = {t.strip().lower() for t in excluded_doc_types}
    roster_ids = roster_ids if strict else None
    buffer = _ColumnBuffer()
    problems: list[str] = []
    seen: dict[str, int] = {}
    n_rows = dropped = 0
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        rows = json_rows(path, PUBLICATION_FIELDS, problems)
    else:
        rows = csv_rows(path, PUBLICATION_FIELDS)
    # CSV cells are strings ("" when empty); JSON values may be anything, None when absent
    for line, (pid, year, category, journal_if, citations, doc_type, byline) in rows:
        n_rows += 1
        doc_type = str(doc_type or "").strip()
        if doc_type.lower() in excluded:
            dropped += 1
            continue
        pid = str(pid or "").strip()
        category = str(category or "").strip()
        no_impact = journal_if is None or (isinstance(journal_if, str)
                                           and not journal_if.strip())
        impact = math.nan if no_impact else _real_number(journal_if)
        # the first failing check, in this order, names the row's problem
        if not pid:
            problem = "empty publication id"
        elif (year_value := _whole_number(year)) is None:
            problem = f"unparseable year {year!r}"
        elif not 1900 <= year_value <= 2100:
            problem = f"year {year_value} out of range"
        elif not category:
            problem = "empty subject_category"
        elif impact is None:
            problem = f"unparseable journal_if {journal_if!r}"
        elif not (no_impact or math.isfinite(impact)):
            problem = f"non-finite journal_if {journal_if!r}"
        elif impact < 0:
            problem = f"negative journal_if {impact}"
        elif (cites := _whole_number(citations)) is None:
            problem = f"unparseable citations {citations!r}"
        elif cites < 0:
            problem = f"negative citations {cites}"
        elif cites > MAX_CITATIONS:
            problem = f"citations {cites} out of range"
        elif isinstance(byline := _parse_byline(byline or ""), str):
            problem = byline
        elif roster_ids is not None and (
                unknown := [a for a in byline[0] if a not in roster_ids]):
            problem = f"unknown author id(s) {', '.join(unknown)}"
        elif pid in seen:
            problem = f"duplicate publication id {pid!r} (first seen on line {seen[pid]})"
        else:
            seen[pid] = line
            buffer.append(pid, year_value, category, impact, cites, doc_type, *byline)
            continue
        problems.append(f"line {line}: {problem}")

    if problems:
        raise IngestError(path, problems)
    if not n_rows:
        logger.warning("%s: empty publication file", path)
    return Corpus(buffer.columns(), dropped)


def _fmt_float(x: float | None) -> str:
    return "" if x is None or math.isnan(x) else repr(float(x))


def _iso(ordinal: int) -> str:
    return date.fromordinal(ordinal).isoformat() if ordinal else ""


def write_roster(path, roster: Roster) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROSTER_FIELDS + ROSTER_OPTIONAL_FIELDS)
        writer.writerows(
            [pid, "M" if male else "F", _iso(birth), _iso(appointed), roster.sds_names[sds],
             roster.uda_names[uda], UNIVERSITY_TYPES[utype], _iso(start), _iso(end)]
            for pid, male, birth, appointed, sds, uda, utype, start, end in zip(
                roster.ids, roster.male.tolist(), roster.birth.tolist(),
                roster.appointed.tolist(), roster.sds.tolist(), roster.uda.tolist(),
                roster.utype.tolist(), roster.active_start.tolist(),
                roster.active_end.tolist()))


def write_publications(path, corpus: Corpus) -> None:
    authors = list(corpus.authors)  # a NameSequence formats once, not once per slot
    tokens = [f"{authors[a]}@{corpus.universities[u]}" for a, u in
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
    return read_pairs(path, "sds", "uda")


def working_years(start: np.ndarray, end: np.ndarray,
                  window: tuple[int, int]) -> np.ndarray:
    """Fractional years of each active span [start, end] inside the window.

    ``start``/``end`` are day ordinals, 0 in both for no span (the whole
    window).  Each calendar year adds (covered days)/(days in that year), in
    year order, so a span covering the whole window yields exactly the window
    length in years.
    """
    first, last = window
    if first > last:
        raise ValueError(f"invalid window {window}")
    spanned = np.asarray(start) > 0
    total = np.zeros(spanned.shape)
    for year in range(first, last + 1):
        y0, y1 = date(year, 1, 1).toordinal(), date(year, 12, 31).toordinal()
        covered = np.minimum(end, y1) - np.maximum(start, y0) + 1
        total += np.where(spanned, np.maximum(covered, 0), y1 - y0 + 1) / (y1 - y0 + 1)
    return total


# Roster rows the covariates cannot be derived for, by condition.
_COVARIATE_CHECKS = ("census date before birth", "census date before appointment",
                     "no working years inside window {window}")


def derive_covariates(roster: Roster, census_date: date,
                      window: tuple[int, int]) -> dict[str, np.ndarray]:
    """Covariates of every professor at the census date, as columns named and
    ordered like those of compute's covariates.csv.

    ``age`` and ``seniority`` are exact day-difference/365.2425 values (these
    feed the regressions and are shown to 2 decimals in reports);
    ``age_years``/``seniority_years`` are the completed whole-year counts.
    The 0/1 flags are ``gender_dummy`` (male), ``u1``, ``u2`` and ``u3``
    (private university, advanced school, polytechnic) and
    ``recently_promoted`` (seniority under RECENT_PROMOTION_YEARS).  ``t`` is
    the fractional-year overlap of the active span with the window.  Raises
    :class:`IngestError` naming every row born or appointed after the census
    date or with no working years in the window.
    """
    census = census_date.toordinal()
    t = working_years(roster.active_start, roster.active_end, window)
    failed = np.stack([census <= roster.birth, census < roster.appointed, t <= 0])
    if failed.any():
        rows, checks = np.nonzero(failed.T)
        raise IngestError(roster.source, [
            ("" if roster.lines is None else f"line {roster.lines[i]}: ")
            + f"{roster.ids[i]}: {_COVARIATE_CHECKS[c].format(window=window)}"
            for i, c in zip(rows.tolist(), checks.tolist())])
    seniority = exact_years(roster.appointed, census)
    utype = roster.utype
    return {
        "age": exact_years(roster.birth, census),
        "seniority": seniority,
        "age_years": whole_years(roster.birth, census),
        "seniority_years": whole_years(roster.appointed, census),
        "gender_dummy": roster.male.astype(np.int64),
        "u1": (utype == UNIVERSITY_TYPES.index("private")).astype(np.int64),
        "u2": (utype == UNIVERSITY_TYPES.index("advanced_school")).astype(np.int64),
        "u3": (utype == UNIVERSITY_TYPES.index("polytechnic")).astype(np.int64),
        "t": t,
        "recently_promoted": (seniority < RECENT_PROMOTION_YEARS).astype(np.int64),
    }
