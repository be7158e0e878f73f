"""Input readers, roster and publication ingestion, and census-date covariates.

Every file resperf reads goes through :func:`read_blocks`, :func:`read_pairs`
or :func:`read_json_object`, which fail with an :class:`IngestError` naming
the file.  Rosters are CSV; publication corpora are CSV or JSON-lines (one
object per line).  Row files are read and checked a block of rows at a time,
one mask per check, and :class:`RowProblems` names each bad row.  Ingestion
either returns fully validated columns or fails with a row-addressed error
listing every problem found: a roster goes straight into the columns of a
:class:`Roster`, publications into those of a :class:`Corpus`.
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
from collections import defaultdict
from itertools import compress, repeat
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


# Rows per block of a row file.  Per-block costs are small at this size, and
# a block's cells are few enough that cyclic GC, which scans the live JSON
# records, and the heap they leave behind stay close to a row-at-a-time
# reader's.  On the 115k-row bench corpora, 512 rows read fastest of 256 to
# 4,096 and left the smallest heap.
BLOCK_ROWS = 512


def read_blocks(path, fields: Sequence[str], optional: Sequence[str] = (),
                problems: RowProblems | None = None,
                json_lines: bool = False) -> Iterator[tuple[list[int], list]]:
    """(lines, cells) for each block of at most BLOCK_ROWS rows of a row file:
    each row's line, and per field in ``fields + optional`` order a sequence
    of the rows' cells.

    The file is UTF-8, with or without a byte-order mark, and blank lines are
    skipped.  A CSV file has a header line; the cells of a short row and of
    an absent optional column read as "", and a missing required column
    raises :class:`IngestError`.  With ``json_lines`` each line is a JSON
    object whose values are the cells, None where absent; a line that is not
    one is added to ``problems``.
    """
    path = Path(path)
    with path.open(newline=None if json_lines else "", encoding="utf-8-sig") as fh:
        if json_lines:
            yield from _json_blocks(fh, (*fields, *optional), problems)
        else:
            yield from _csv_blocks(fh, path, fields, optional)


_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})


def _csv_blocks(fh, path: Path, required: Sequence[str], optional: Sequence[str]):
    reader = csv.reader(fh)
    header = next(_checked(reader, path), [])
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(path, [f"line 1: missing column(s) {', '.join(missing)}"])
    width = len(header)
    column = {name: i for i, name in enumerate(header)}
    at = [column.get(c) for c in (*required, *optional)]
    line = reader.line_num  # lines read so far
    while block := list(itertools.islice(fh, BLOCK_ROWS)):
        filled = list(map(operator.not_, map(_BLANK_LINES.__contains__, block)))
        rows = block if all(filled) else list(compress(block, filled))
        text = "".join(rows).replace("\r\n", "\n")
        # Lines free of quotes, lone carriage returns and overlong fields, each
        # with every column, are split on commas; the csv module reads the rest.
        if (rows and '"' not in text and "\r" not in text
                and max(map(len, rows)) <= csv.field_size_limit()
                and set(map(str.count, rows, repeat(","))) == {width - 1}):
            cells = text.replace("\n", ",").split(",")
            if text.endswith("\n"):
                cells.pop()
            lines = list(compress(range(line + 1, line + len(block) + 1), filled))
            line += len(block)
            yield lines, [("",) * len(rows) if i is None else cells[i::width] for i in at]
            continue
        reader = csv.reader(itertools.chain(block, fh))
        lines, rows = [], []
        for row in _checked(reader, path, line):
            if row:
                lines.append(line + reader.line_num)
                rows.append(row if len(row) == width else (row + [""] * width)[:width])
            if reader.line_num >= len(block):  # a quoted line break may read past the block
                break
        line += reader.line_num
        if rows:
            columns = list(zip(*rows))
            yield lines, [("",) * len(rows) if i is None else columns[i] for i in at]


def _checked(reader, path: Path, before: int = 0) -> Iterator[list[str]]:
    """The rows of a ``csv.reader`` whose first line is line ``before + 1``; a
    ``csv.Error``, such as a cell over ``csv.field_size_limit()``, raises
    :class:`IngestError` naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(path, [f"line {before + reader.line_num}: {exc}"]) from None


def _json_blocks(fh, fields: Sequence[str], problems: RowProblems):
    lines: list[int] = []
    records: list[dict] = []
    for line, text in enumerate(fh, start=1):
        if text.isspace():
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.found.append((line, f"invalid JSON ({exc.msg})"))
            continue
        if not isinstance(record, dict):
            problems.found.append(
                (line, f"expected a JSON object, got {type(record).__name__}"))
            continue
        lines.append(line)
        records.append(record)
        if len(records) == BLOCK_ROWS:
            yield lines, [list(map(dict.get, records, repeat(f))) for f in fields]
            lines, records = [], []
    if records:
        yield lines, [list(map(dict.get, records, repeat(f))) for f in fields]


class RowProblems:
    """The problems found in a row file, checked a block at a time.

    Each check is a boolean mask over the block's rows.  :meth:`flag`
    formats a message only for the rows the mask flags, and by default
    excludes them from the block's later checks, so each such row is named
    by its first failing check.  :meth:`raise_any` lists the problems in
    line order, and in check order within a line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.found: list[tuple[int, str]] = []  # (line, message)

    def start(self, lines: list[int]) -> None:
        """Begin checking a block of rows read from ``lines``."""
        self.lines = lines
        self.bad = np.zeros(len(lines), dtype=bool)

    def flag(self, mask, message: Callable[[int], str] | None = None,
             stop: bool = True) -> None:
        """Add ``message(i)`` for each row i that ``mask`` flags and no
        stopping check has; with ``stop``, later checks skip those rows."""
        hit = np.flatnonzero(mask & ~self.bad)
        if message is not None:
            lines = self.lines
            self.found.extend((lines[i], message(i)) for i in hit.tolist())
        if stop:
            self.bad[hit] = True

    def raise_any(self) -> None:
        if self.found:
            self.found.sort(key=operator.itemgetter(0))
            raise IngestError(self.path, [f"line {line}: {message}"
                                          for line, message in self.found])


def _mask(flags: Iterable, n: int) -> np.ndarray:
    return np.fromiter(flags, dtype=bool, count=n)


def _texts(cells) -> list[str]:
    """``str(cell or "").strip()`` of each cell."""
    try:
        return list(map(str.strip, cells))
    except TypeError:  # JSON values that are not strings
        return [str(c or "").strip() for c in cells]


def _whole_numbers(cells) -> list[int | None]:
    """:func:`_whole_number` of each cell."""
    if set(map(type, cells)) <= {str, int}:
        try:
            return list(map(int, cells))
        except ValueError:
            pass
    return list(map(_whole_number, cells))


def _real_numbers(cells) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_real_number` of each cell as float64, NaN where it is None,
    and the mask of those cells."""
    n = len(cells)
    given = _mask(map(operator.is_not, cells, repeat(None)), n)
    present = cells if given.all() else list(compress(cells, given.tolist()))
    parsed = None
    if set(map(type, present)) <= {str, int, float}:
        try:
            parsed = list(map(float, present))
        except (ValueError, OverflowError):
            pass
    if parsed is None:
        parsed = list(map(_real_number, present))
    values = np.full(n, np.nan)
    values[given] = parsed  # None reads NaN
    unread = ~given
    unread[given] = _mask(map(operator.is_, parsed, repeat(None)), len(parsed))
    return values, unread


def _int64(values: list[int | None]) -> np.ndarray:
    """The values as int64, None read as 0 and the rest clipped into range."""
    try:
        return np.array(values, dtype=np.int64)
    except (TypeError, OverflowError):
        return np.array([0 if v is None else min(max(v, -2 ** 63), 2 ** 63 - 1)
                         for v in values], dtype=np.int64)


def _code_map() -> defaultdict:
    """A value-to-code map that codes each new key it is asked for in turn."""
    return defaultdict(itertools.count().__next__)


class _Columns:
    """Numpy columns grown a block at a time, each in one growable array.  (A
    list of block arrays joined at the end left the heap a few MB larger.)"""

    def __init__(self, dtypes: Mapping[str, type]):
        self.dtypes = dtypes
        self.data = {name: array("b" if dtype is bool else np.dtype(dtype).char)
                     for name, dtype in dtypes.items()}

    def extend(self, name: str, values) -> None:
        self.data[name].frombytes(np.asarray(values, self.dtypes[name]).tobytes())

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.frombuffer(data, self.dtypes[name])
                for name, data in self.data.items()}


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
    with path.open(newline="", encoding="utf-8-sig") as fh:
        for line, row in enumerate(_checked(csv.reader(fh), path), start=1):
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
# The names the codes in ``category``, ``doc_type``, ``author`` and ``university`` index.
_VOCABULARIES = ("categories", "doc_types", "authors", "universities")


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

    Ingest and the simulator build the columns with numpy and pass them,
    less the derived ``shared``, ``pub`` and ``position``, to the
    constructor; ingest also passes ``author_codes``, the author-to-code map
    it built.  The simulator codes roster authors
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


def empty_corpus() -> Corpus:
    """A corpus with no publications."""
    return Corpus({"ids": [], **dict.fromkeys(_COLUMN_DTYPES, ()),
                   **{name: [] for name in _VOCABULARIES}})


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


def _day_ordinal(text: str) -> int:
    """Day ordinal of an ISO date, 0 if it does not parse."""
    if not text:
        return 0
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        return 0


_GENDERS = {"m": True, "male": True, "f": False, "female": False}
_UNIVERSITY_CODES = {name: code for code, name in enumerate(UNIVERSITY_TYPES)}


def ingest_roster(path, sds_map: Mapping[str, str] | None = None) -> Roster:
    """Read a professor roster CSV.

    ``sds_map`` optionally maps field (SDS) codes to their discipline (UDA);
    when given, every row's SDS must appear in it with a matching UDA.  Either
    every row parses or an :class:`IngestError` reports all offending rows.
    """
    path = Path(path)
    problems = RowProblems(path)
    n_rows = 0
    seen: dict[str, int] = {}
    sds_uda: dict[str, tuple[str, int]] = {}
    codes = {"sds": _code_map(), "uda": _code_map()}
    ids: list[str] = []
    columns = _Columns({**_ROSTER_DTYPES, "lines": np.int64})
    for lines, (pid, gender, birth, appointed, sds, uda, utype, start, end) in \
            read_blocks(path, ROSTER_FIELDS, ROSTER_OPTIONAL_FIELDS):
        n = len(lines)
        n_rows += n
        problems.start(lines)
        pid = list(map(str.strip, pid))
        problems.flag(_mask(map(operator.not_, pid), n), lambda i: "empty id")
        first = list(map(seen.setdefault, pid, lines))
        problems.flag(np.array(first) != lines,
                      lambda i: f"duplicate id {pid[i]!r} (first seen on line {first[i]})")
        male = list(map(_GENDERS.get, map(str.lower, map(str.strip, gender))))
        unread = _mask(map(operator.is_, male, repeat(None)), n)
        problems.flag(unread, lambda i: f"gender must be M or F, got {gender[i]!r}", stop=False)
        days = {}
        for name, cells in (("birth_date", birth), ("appointment_date", appointed)):
            days[name] = np.fromiter(map(_day_ordinal, map(str.strip, cells)), np.int64, n)
            problems.flag(days[name] == 0, lambda i: f"unparseable {name} {cells[i]!r}",
                          stop=False)
            unread |= days[name] == 0
        # after any parse problems above, the first failing check names the row
        sds, uda = list(map(str.strip, sds)), list(map(str.strip, uda))
        problems.flag(_mask(map(operator.not_, sds), n) | _mask(map(operator.not_, uda), n),
                      lambda i: "empty sds or uda")
        utype_code = np.fromiter(map(_UNIVERSITY_CODES.get, map(str.lower, map(str.strip, utype)),
                                     repeat(-1)), np.int64, n)
        problems.flag(utype_code < 0, lambda i: f"unknown university_type {utype[i]!r}")
        if sds_map is not None:
            problems.flag(_mask(map(operator.not_, map(sds_map.__contains__, sds)), n),
                          lambda i: f"unknown SDS code {sds[i]!r}")
            problems.flag(_mask(map(operator.ne, map(sds_map.get, sds), uda), n),
                          lambda i: f"sds {sds[i]!r} maps to uda {sds_map[sds[i]]!r}, "
                                    f"row says {uda[i]!r}")
        # the first row to pass the checks above fixes each SDS's (UDA, line)
        rows = np.flatnonzero(~problems.bad).tolist()
        fixed = [sds_uda.setdefault(sds[i], (uda[i], lines[i])) for i in rows]
        conflict = np.zeros(n, dtype=bool)
        conflict[rows] = [first != uda[i] for (first, _), i in zip(fixed, rows)]
        problems.flag(conflict, lambda i: f"sds {sds[i]!r} listed under uda {uda[i]!r} but "
                                          f"line {sds_uda[sds[i]][1]} has uda "
                                          f"{sds_uda[sds[i]][0]!r}")
        problems.flag(unread)
        age = whole_years(days["birth_date"], days["appointment_date"])
        problems.flag(age < MIN_APPOINTMENT_AGE,
                      lambda i: f"appointed at {int(age[i])} (before age {MIN_APPOINTMENT_AGE})")
        start, end = list(map(str.strip, start)), list(map(str.strip, end))
        spanned = _mask(map(bool, start), n)
        problems.flag(spanned != _mask(map(bool, end), n),
                      lambda i: "active_start/active_end must be given together")
        span = {}
        for name, cells in (("active_start", start), ("active_end", end)):
            span[name] = np.fromiter(map(_day_ordinal, cells), np.int64, n)
            problems.flag(spanned & (span[name] == 0),
                          lambda i: f"unparseable {name} {cells[i]!r}", stop=False)
        problems.flag(spanned & ((span["active_start"] == 0) | (span["active_end"] == 0)))
        problems.flag(span["active_start"] > span["active_end"],
                      lambda i: "active_start after active_end")
        if problems.found:
            continue
        ids += pid
        for name, values in (("male", male), ("birth", days["birth_date"]),
                             ("appointed", days["appointment_date"]),
                             ("sds", list(map(codes["sds"].__getitem__, sds))),
                             ("uda", list(map(codes["uda"].__getitem__, uda))),
                             ("utype", utype_code), ("active_start", span["active_start"]),
                             ("active_end", span["active_end"]), ("lines", lines)):
            columns.extend(name, values)

    problems.raise_any()
    if not n_rows:
        logger.warning("%s: empty roster", path)
    return Roster(ids, **columns.arrays(), sds_names=list(codes["sds"]),
                  uda_names=list(codes["uda"]), source=str(path))


def _whole_number(raw) -> int | None:
    """int of a CSV string or JSON number; None for fractions, bools and junk."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        return None


def _real_number(raw, finite: bool = False) -> float | None:
    """float of a CSV string or JSON number; None for bools, junk and integers
    too large for a float, and with ``finite`` for NaN and infinities."""
    if isinstance(raw, bool):
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
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


# Every byte but the byline separators ";" and "@"; no byte of a multi-byte
# UTF-8 sequence is one of them.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b";@")


def _split_bylines(raws: list) -> tuple[list[str], list[str], np.ndarray, dict[int, str]]:
    """Authors and universities of the bylines, in order, each byline's
    length, and the problem of each byline :func:`_parse_byline` rejects,
    by index; a rejected byline has length 0.

    Bylines that are all strings or all lists of strings, with every token
    an author@university pair that stripping leaves alone, are split in one
    pass over their joined text; any other block goes byline by byline.
    """
    kinds = set(map(type, raws))
    text = None
    if kinds == {str}:
        text = ";".join(raws)
        counts = np.fromiter(map(str.count, raws, repeat(";")), np.int64, len(raws)) + 1
    elif kinds == {list}:
        try:
            text = ";".join(map(";".join, raws))
        except TypeError:  # a token that is not a string
            pass
        counts = np.fromiter(map(len, raws), np.int64, len(raws))
    if text is not None:
        slots = int(counts.sum())
        separators = text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
        parts = text.replace("@", ";").split(";")
        authors, universities = parts[0::2], parts[1::2]
        if (slots and separators == b"@;" * (slots - 1) + b"@"
                and all(authors) and all(universities)
                and (text.split(None, 1) == [text]
                     or authors == list(map(str.lstrip, authors))
                     and universities == list(map(str.rstrip, universities)))):
            return authors, universities, counts, {}
    authors, universities, counts, failed = [], [], np.zeros(len(raws), np.int64), {}
    for i, raw in enumerate(raws):
        byline = _parse_byline(raw or "")
        if isinstance(byline, str):
            failed[i] = byline
        else:
            authors += byline[0]
            universities += byline[1]
            counts[i] = len(byline[0])
    return authors, universities, counts, failed


def ingest_publications(path,
                        excluded_doc_types: Iterable[str] = DEFAULT_EXCLUDED_DOC_TYPES,
                        roster_ids=None,
                        strict: bool = False) -> Corpus:
    """Read a publication corpus (CSV, or JSON-lines for .jsonl/.ndjson/.json).

    Rows whose doc_type is in ``excluded_doc_types`` (case-insensitive) are
    dropped before validation and counted in ``Corpus.dropped``.  With
    ``strict`` every byline author id must appear in ``roster_ids``.  Rows
    are validated a block at a time, straight into the corpus columns, and
    the :class:`IngestError` lists every problem in line order, each row
    named by its first failing check.
    """
    path = Path(path)
    excluded = {t.strip().lower() for t in excluded_doc_types}
    roster_ids = roster_ids if strict else None
    problems = RowProblems(path)
    seen: dict[str, int] = {}
    vocabularies = {name: _code_map() for name in _VOCABULARIES}
    ids: list[str] = []
    buffers = _Columns(_COLUMN_DTYPES)
    n_rows = dropped = 0
    json_lines = path.suffix.lower() in (".jsonl", ".ndjson", ".json")
    # CSV cells are strings ("" when empty); JSON values may be anything, None when absent
    for lines, cells in read_blocks(path, PUBLICATION_FIELDS, problems=problems,
                                    json_lines=json_lines):
        n_rows += len(lines)
        doc_type = _texts(cells[5])
        drop = _mask(map(excluded.__contains__, map(str.lower, doc_type)), len(lines))
        if drop.any():
            dropped += int(drop.sum())
            keep = (~drop).tolist()
            lines, doc_type, *cells = [list(compress(column, keep))
                                       for column in (lines, doc_type, *cells)]
        columns = lines and _publication_block(problems, lines, cells, roster_ids, seen,
                                               vocabularies)
        if columns:
            ids += columns.pop("ids")
            columns["doc_type"] = list(map(vocabularies["doc_types"].__getitem__, doc_type))
            for name, values in columns.items():
                buffers.extend(name, values)

    problems.raise_any()
    if not n_rows:
        logger.warning("%s: empty publication file", path)
    columns = buffers.arrays()
    author_codes = vocabularies["authors"]
    author_codes.default_factory = None  # a plain dict from here on
    return Corpus({"ids": ids, **columns,
                   **{name: list(codes) for name, codes in vocabularies.items()},
                   "author_codes": author_codes}, dropped)


def _publication_block(problems: RowProblems, lines: list[int], cells: list,
                       roster_ids, seen: dict[str, int],
                       vocabularies: dict[str, defaultdict]) -> dict | None:
    """Check one block of kept publication rows; the first failing check, in
    this order, names a row.  Its corpus columns less doc_type, or None once
    the file has a problem."""
    raw_id, raw_year, raw_category, raw_impact, raw_citations, _, raw_byline = cells
    n = len(lines)
    problems.start(lines)
    pid = _texts(raw_id)
    problems.flag(_mask(map(operator.not_, pid), n), lambda i: "empty publication id")
    years = _whole_numbers(raw_year)
    year = _int64(years)
    problems.flag(_mask(map(operator.is_, years, repeat(None)), n),
                  lambda i: f"unparseable year {raw_year[i]!r}")
    problems.flag((year < 1900) | (year > 2100), lambda i: f"year {years[i]} out of range")
    category = _texts(raw_category)
    problems.flag(_mask(map(operator.not_, category), n),
                  lambda i: "empty subject_category")
    impact, unread = _real_numbers(raw_impact)  # unknown or unparseable read NaN
    unknown = unread.copy()  # no value: absent, null or blank
    rows = np.flatnonzero(unread).tolist()
    unknown[rows] = [raw_impact[i] is None or isinstance(raw_impact[i], str)
                     and not raw_impact[i].strip() for i in rows]
    problems.flag(unread & ~unknown, lambda i: f"unparseable journal_if {raw_impact[i]!r}")
    problems.flag(~np.isfinite(impact) & ~unknown,
                  lambda i: f"non-finite journal_if {raw_impact[i]!r}")
    problems.flag(impact < 0, lambda i: f"negative journal_if {float(impact[i])}")
    cites = _whole_numbers(raw_citations)
    citations = _int64(cites)
    problems.flag(_mask(map(operator.is_, cites, repeat(None)), n),
                  lambda i: f"unparseable citations {raw_citations[i]!r}")
    problems.flag(citations < 0, lambda i: f"negative citations {cites[i]}")
    problems.flag(citations > MAX_CITATIONS, lambda i: f"citations {cites[i]} out of range")

    rows = np.flatnonzero(~problems.bad)
    authors, universities, counts, failed = _split_bylines(
        list(compress(raw_byline, (~problems.bad).tolist())))
    broken = np.zeros(n, dtype=bool)
    broken[rows[list(failed)]] = True
    problems.flag(broken, lambda i: failed[int(np.searchsorted(rows, i))])
    codes = vocabularies["authors"]
    author = np.array(list(map(codes.__getitem__, authors)), dtype=np.int64)
    slot_row = np.repeat(rows, counts)
    # two slots of one byline with one author code make equal keys
    keys = np.sort(slot_row * len(codes) + author)
    twice = np.zeros(n, dtype=bool)
    twice[keys[1:][keys[1:] == keys[:-1]] // max(len(codes), 1)] = True
    problems.flag(twice, lambda i: _parse_byline(raw_byline[i] or ""))
    if roster_ids is not None:
        listed = np.zeros(n, dtype=bool)
        listed[slot_row[~_mask(map(roster_ids.__contains__, authors), len(authors))]] = True
        problems.flag(listed, lambda i: "unknown author id(s) " + ", ".join(
            a for a in _parse_byline(raw_byline[i] or "")[0] if a not in roster_ids))
    good = (~problems.bad).tolist()
    first = np.array(lines)
    first[~problems.bad] = list(map(seen.setdefault, compress(pid, good), compress(lines, good)))
    problems.flag(first != lines, lambda i: f"duplicate publication id {pid[i]!r} "
                                            f"(first seen on line {first[i]})")
    if problems.found:
        return None
    return {"ids": pid, "year": year, "citations": citations, "impact": impact,
            "n_authors": counts, "author": author,
            "category": list(map(vocabularies["categories"].__getitem__, category)),
            "university": list(map(vocabularies["universities"].__getitem__, universities))}


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
