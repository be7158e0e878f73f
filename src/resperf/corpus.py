"""Input readers, roster and publication ingestion, and census-date covariates.

Every file resperf reads goes through :func:`read_blocks` (header CSV),
its block reader (a publication corpus, CSV or JSON lines with one object
per line), :func:`read_pairs` or :func:`read_json_object`, which fail with
an :class:`IngestError` naming the file.  Row files are read and checked a
block of rows at a time, one mask per check, and :class:`RowProblems` names
each bad row; :func:`read_columns` checks each declared :class:`Column`.  Ingestion
either returns fully validated columns or fails with a row-addressed error
listing every problem found: a roster goes straight into the columns of a
:class:`Roster`, publications into those of a :class:`Corpus`.  A large
publication corpus is read in parts, one per available core, and the parts
merge into what a one-part read gives.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import logging
import math
import operator
import os
import pickle
import re
import signal
import traceback
from array import array
from dataclasses import dataclass
from datetime import date
from collections import defaultdict
from itertools import compress, islice, repeat
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
# Names write_publications gives what the corpus does not keep: the k-th
# byline author not on the roster, k counted from 1 in corpus order, and
# every publication's doc_type.
COAUTHOR_NAME = "X{}"
DOC_TYPE = "article"

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

    def __reduce__(self):
        return type(self), (self.source, self.problems)


# Rows per block of a row file.  Per-block costs are small at this size, and
# a block's cells are few enough that cyclic GC, which scans the live JSON
# records, and the heap they leave behind stay close to a row-at-a-time
# reader's.  On the 115k-row bench corpora, 512 rows read fastest of 256 to
# 4,096 and left the smallest heap.
BLOCK_ROWS = 512


def read_blocks(path, fields: Sequence[str],
                optional: Sequence[str] = ()) -> Iterator[tuple[list[int], list]]:
    """(lines, cells) for each block of at most BLOCK_ROWS rows of a CSV
    file: each row's line, and per field in ``fields + optional`` order a
    sequence of the rows' cells.

    The file is UTF-8, with or without a byte-order mark, has a header line,
    and blank lines are skipped.  The cells of a short row and of an absent
    optional column read as "".  A missing required column, a repeated one
    that is read, and bytes that are not UTF-8 raise :class:`IngestError`,
    the last naming the first bad line.
    """
    path = Path(path)
    layout = _csv_layout(path, fields, optional)
    yield from _part_blocks(path, WHOLE_FILE, (*fields, *optional), layout, None)


# A part of a row file: the byte offset of its first line, the physical lines
# before it, and its physical lines (None: to the end of the file).
WHOLE_FILE = (0, 0, None)


def _part_blocks(path: Path, part: tuple[int, int, int | None], fields: Sequence[str],
                 layout: tuple | None, problems: RowProblems | None):
    """The blocks of one part of a row file, as :func:`read_blocks` gives
    them: a CSV file read with the header ``layout`` of :func:`_csv_layout`,
    or else JSON lines, each an object whose values are the cells, None
    where absent, and each line that is not one added to ``problems``."""
    start, before, count = part
    try:
        with path.open("rb") as raw:
            raw.seek(start)
            # a byte-order mark is one only at the start of the file
            fh = io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig",
                                  newline=None if layout is None else "")
            lines = fh if count is None else itertools.islice(fh, count)
            if layout is None:
                yield from _json_blocks(lines, fields, problems, before)
                return
            if not start:  # skip the header
                before += len(list(itertools.islice(lines, layout[2])))
            yield from _csv_blocks(lines, path, layout, before)
    except UnicodeDecodeError as exc:
        raise _read_error(path, str(exc)) from None


def _read_error(path: Path, problem: str) -> IngestError:
    """The error of a read of ``path`` stopped by ``problem``, unless the
    file holds bytes that are not UTF-8: then its first line holding one.
    So a file that is not UTF-8 fails the same way wherever a reader, or a
    part of it, stopped."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        problem = f"line {line}: invalid UTF-8 (byte 0x{data[exc.start]:02x}, {exc.reason})"
    return IngestError(path, [problem])


_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})


def _csv_layout(path: Path, required: Sequence[str],
                optional: Sequence[str]) -> tuple[int, list[int | None], int]:
    """The header of a CSV file: its width, the column of each field in
    ``required + optional`` order (None for an absent optional one), and
    its physical lines.  A missing required column, and a repeated one of
    ``required + optional``, raise IngestError."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(_checked(reader, path), [])
    missing = [c for c in required if c not in header]
    if missing:
        raise _read_error(path, f"line 1: missing column(s) {', '.join(missing)}")
    twice = [c for c in (*required, *optional) if header.count(c) > 1]
    if twice:
        raise _read_error(path, f"line 1: duplicate column(s) {', '.join(twice)}")
    column = {name: i for i, name in enumerate(header)}
    return len(header), [column.get(c) for c in (*required, *optional)], reader.line_num


def _csv_blocks(fh, path: Path, layout: tuple, line: int):
    """The blocks of CSV lines ``fh``, the first of them line ``line + 1``."""
    width, at, _ = layout
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
    ``csv.Error``, such as a cell over ``csv.field_size_limit()``, and bytes
    that are not UTF-8 raise :class:`IngestError` naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise _read_error(path, f"line {before + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _read_error(path, str(exc)) from None


def _json_blocks(fh, fields: Sequence[str], problems: RowProblems, before: int):
    """The blocks of JSON lines ``fh`` from line ``before + 1``, decoded by
    :func:`_json_array` or else line by line, adding bad lines to ``problems``."""
    for first in itertools.count(before + 1, BLOCK_ROWS):
        if not (block := list(itertools.islice(fh, BLOCK_ROWS))):
            return
        filled = list(map(operator.not_, map(str.isspace, block)))
        lines = list(compress(range(first, first + len(block)), filled))
        texts = list(compress(block, filled))
        if (records := _json_array(texts)) is None:  # line by line
            numbered, lines, records = zip(lines, texts), [], []
            for line, text in numbered:
                try:
                    record = json.loads(text)
                    problem = None if isinstance(record, dict) else \
                        f"expected a JSON object, got {type(record).__name__}"
                except ValueError as exc:  # also an integer over sys.get_int_max_str_digits()
                    problem = f"invalid JSON ({getattr(exc, 'msg', exc)})"
                except RecursionError:
                    problem = _TOO_DEEP
                if problem:
                    problems.found.append((line, problem))
                else:
                    lines.append(line)
                    records.append(record)
        if records:
            yield lines, [list(map(dict.get, records, repeat(f))) for f in fields]


_TOO_DEEP = "invalid JSON (nested too deeply)"


def _json_array(texts: list[str]) -> list[dict] | None:
    """The objects of JSON lines ``texts`` decoded as one array, U+001F
    between each two, or None unless that is sound.  A JSON string holds
    U+001F only as an escape: if no line spells it and every odd element is
    U+001F, each is a join and each line one element.  (A plain join is not
    sound: '{"a": [1' and '2]}, {}' give two objects.)"""
    joined = ',"\\u001f",'.join(texts)
    if joined.count("\\u001f") == len(texts) - 1 and "\\u001F" not in joined:
        try:
            values = json.loads(f"[{joined}]")
        # invalid JSON, an integer over the digit limit, or nesting one level
        # too deep inside the array for a line that decodes alone
        except (ValueError, RecursionError):
            return None
        if (len(values) == 2 * len(texts) - 1 and values[1::2] == ["\x1f"] * (len(texts) - 1)
                and all(map(isinstance, values[::2], repeat(dict)))):
            return values[::2]
    return None


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
    and the mask of those cells, among them each None or "" cell, which is
    not parsed."""
    n = len(cells)
    given = _mask(map(operator.is_not, cells, repeat(None)), n)
    if "" in cells:
        given &= _mask(map(operator.ne, cells, repeat("")), n)
    present = cells if given.all() else list(compress(cells, given.tolist()))
    values = np.full(n, np.nan)
    if set(map(type, present)) <= {str, int, float}:
        try:
            values[given] = np.fromiter(map(float, present), np.float64, len(present))
            return values, ~given
        except (ValueError, OverflowError):
            pass
    parsed = list(map(_real_number, present))
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


# The kinds of a Column.  A COUNT has at most MAX_COUNT_DIGITS digits after
# its leading zeros, so that it fits in an int64.
ID, TEXT, REAL, COUNT, CODE = "id", "text", "real", "count", "code"
MAX_COUNT_DIGITS = 18


@dataclass(frozen=True)
class Column:
    """A column :func:`read_columns` checks.  Each cell must be, by ``kind``,
    ID: not blank after strip ("empty <name>") nor an earlier row's id;
    TEXT: not blank after strip ("empty <name>"); REAL: a finite number in
    ``bounds``, or with ``blank`` "" (read NaN); COUNT: ASCII digits, at most
    MAX_COUNT_DIGITS after leading zeros; CODE: a key of ``codes``, read as
    its value.  A failing cell's problem is ``message.format(cell)``, or
    ``outside``'s for a REAL out of bounds or a COUNT too long, where given.
    With ``stop``, a row failing this column is left out of later checks."""

    name: str
    kind: str
    message: str = ""
    outside: str | None = None
    stop: bool = False
    bounds: tuple[float, float] = (0.0, math.inf)
    blank: bool = False
    codes: Mapping[str, int] | None = None


def read_columns(path, columns: Sequence[Column], rule: Callable | None = None
                 ) -> tuple[dict[str, np.ndarray | list[str]], dict[str, int]]:
    """The checked ``columns`` of a CSV file, by name, and the row of each
    id.  ``rule``, given a block's columns and the mask of its rows no
    ``stop`` column failed, returns the mask and ``message(i)`` of a last
    check.  The IngestError lists every problem, as RowProblems does."""
    problems, rows, n = RowProblems(path), {}, 0
    parts = {c.name: [] for c in columns}
    for lines, cells in read_blocks(path, [c.name for c in columns]):
        problems.start(lines)
        block = {c.name: _column_block(c, texts, problems, rows, n)
                 for c, texts in zip(columns, cells)}
        if rule is not None:
            problems.flag(*rule(block, ~problems.bad))
        for name, values in block.items():
            parts[name].append(values)
        n += len(lines)
    problems.raise_any()
    return {c.name: list(itertools.chain(*parts[c.name])) if c.kind in (ID, TEXT) else
            np.concatenate([np.zeros(0, np.float64 if c.kind == REAL else np.int64),
                            *parts[c.name]]) for c in columns}, rows


def _column_block(column: Column, cells, problems: RowProblems, rows: dict, first: int):
    """The values of a block of ``column``'s cells, rows ``first`` on, with
    their failures added to ``problems`` and an ID column's ids to ``rows``."""
    n, kind = len(cells), column.kind

    def flag(mask, message=column.message):
        problems.flag(mask, lambda i: message.format(cells[i]), column.stop)

    if kind in (ID, TEXT):
        flag(_mask(map(operator.not_, map(str.strip, cells)), n), f"empty {column.name}")
        if kind == ID:
            row = np.arange(first, first + n)
            flag(np.fromiter(map(rows.setdefault, cells, row.tolist()), np.int64, n) != row)
        return cells
    if kind == CODE:
        values = np.fromiter(map(column.codes.get, cells, repeat(-1)), np.int64, n)
        flag(values < 0)
        return values
    if kind == COUNT:
        whole = _mask(map(operator.and_, map(str.isascii, cells), map(str.isdigit, cells)), n)
        flag(~whole)
        large = whole & _mask((len(c.lstrip("0")) > MAX_COUNT_DIGITS for c in cells), n)
        flag(large, column.outside or column.message)
        return np.array([int(c) if w else 0 for c, w in zip(cells, (whole & ~large).tolist())],
                        np.int64)
    values = _real_numbers(cells)[0]
    finite = np.isfinite(values)
    unread = ~finite & _mask(map(operator.truth, cells), n) if column.blank else ~finite
    low, high = column.bounds
    outside = finite & ~((low <= values) & (values <= high))
    flag(unread if column.outside else unread | outside)
    if column.outside:
        flag(outside, column.outside)
    return values


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
    problems = RowProblems(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for index, row in enumerate(_checked(reader, path)):
            line = reader.line_num  # a quoted line break spans lines
            if not row or (index == 0 and row[0].strip().lower() == key_name):
                continue
            key = row[0].strip()
            value = row[1].strip() if len(row) > 1 else ""
            if choices is not None:
                value = value.lower()
            if len(row) < 2 or not key or (choices is None and not value):
                problems.found.append((line, f"expected '{key_name},{value_name}'"))
            elif choices is not None and value not in choices:
                problems.found.append((line, f"unknown {value_name} {row[1]!r}"))
            elif mapping.setdefault(key, value) != value:
                problems.found.append((line, f"{key_name} {key!r} mapped to two {value_name}s"))
    problems.raise_any()
    return mapping


def read_json_object(path, build: Callable[[dict], object] = dict):
    """``build`` of the JSON object a UTF-8 file holds, with or without a
    byte-order mark.

    Bytes that are not UTF-8, invalid JSON, any value but an object, and a
    ValueError from ``build`` raise :class:`IngestError` naming the file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise _read_error(path, str(exc)) from None
    except ValueError as exc:  # also an integer over sys.get_int_max_str_digits() digits
        line = f"line {exc.lineno}: " if isinstance(exc, json.JSONDecodeError) else ""
        raise IngestError(path, [f"{line}invalid JSON ({getattr(exc, 'msg', exc)})"]) from None
    except RecursionError:
        raise IngestError(path, [_TOO_DEEP]) from None
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
    """Read-only names ``pattern.format(k)`` for k = 1..``count``, each
    formatted only when read.

    An index returns a name, a slice a list, iteration maps the pattern.
    The simulator names its publications with it, so a cohort nobody writes
    out builds no names.
    """

    def __init__(self, pattern: str, count: int):
        self.pattern, self.count = pattern, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        at = range(1, self.count + 1)[index]  # bounds-checked, negative indices resolved
        return list(map(self.pattern.format, at)) if isinstance(index, slice) \
            else self.pattern.format(at)

    def __iter__(self) -> Iterator[str]:
        return map(self.pattern.format, range(1, self.count + 1))


# Numeric corpus columns; every other column is a list of strings or a NameSequence.
_COLUMN_DTYPES = {"year": np.int64, "category": np.int32, "citations": np.int64,
                  "impact": np.float64, "n_authors": np.int32, "author": np.int32,
                  "university": np.int32}
# The vocabulary each coded corpus column indexes.
_CODED = {"category": "categories", "university": "universities"}


class Corpus:
    """Validated publication corpus held as numpy columns.

    Per publication, in corpus order: ``ids``, ``year``, ``category`` (code
    into ``categories``), ``citations``, ``impact`` (journal impact factor,
    NaN where unknown; ingest rejects NaN and infinite input values, so NaN
    means only that), ``n_authors`` (byline length) and ``shared`` (first
    and last author share a university).  The authorship table has one row
    per byline slot, ordered by publication and then position: ``pub``
    (publication index), ``position``, ``author`` and ``university`` (code
    into ``universities``).

    ``author`` is the slot's row in the roster the corpus was read against,
    or -1 for an author not on it.  Such an author enters scoring only
    through byline length, position and the first and last universities, so
    nothing names one.  A row's doc type only decides whether ingest drops
    it, so the corpus keeps none.

    Ingest and the simulator build the columns with numpy and pass them,
    less the derived ``shared``, ``pub`` and ``position``, to the
    constructor; the simulator passes ``ids`` as a :class:`NameSequence`.
    Treated as read-only after construction.
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

    def authored_by(self, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The in-window authorships of rostered professors, in corpus order.

        Returns ``who``, each authorship's roster row, and ``rows``, its row
        in the authorship table.
        """
        year = self.year[self.pub]
        rows = np.flatnonzero((self.author >= 0) & (window[0] <= year) & (year <= window[1]))
        return self.author[rows], rows


def empty_corpus() -> Corpus:
    """A corpus with no publications."""
    return Corpus({"ids": [], **dict.fromkeys(_COLUMN_DTYPES, ()),
                   **{name: [] for name in _CODED.values()}})


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
# The byline separators: a roster id holding one could never match a byline author.
_NOT_A_BYLINE_AUTHOR = re.compile("[;@]")
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
        problems.flag(_mask(map(_NOT_A_BYLINE_AUTHOR.search, pid), n),
                      lambda i: f"id {pid[i]!r} holds ';' or '@', so no byline can name it")
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


def _real_number(raw) -> float | None:
    """float of a CSV string or JSON number; None for bools, junk and integers
    too large for a float."""
    if isinstance(raw, bool):
        return None
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        return None


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


# Smallest part of a corpus file.  A part costs a fork, and its result a
# pickle and a code remap.  On the 2-vCPU bench host (medians of 15 reads),
# two parts read a 0.8 MB CSV corpus in 0.109 s against 0.076 s for one part,
# a 1.7 MB one in 0.131 against 0.168 s, and a 1.0 MB JSON-lines corpus in
# 0.053 against 0.055 s; parts of 1 MiB or more were never slower.
PART_BYTES = 1 << 20


def ingest_publications(path, roster_rows: Mapping[str, int],
                        excluded_doc_types: Iterable[str] = DEFAULT_EXCLUDED_DOC_TYPES,
                        strict: bool = False) -> Corpus:
    """Read a publication corpus (CSV, or JSON-lines for .jsonl/.ndjson/.json).

    ``roster_rows`` maps each rostered professor's id to its roster row,
    which codes the byline slots the id fills; every other slot is coded
    -1.  Rows whose doc_type is in ``excluded_doc_types`` (case-insensitive)
    are dropped before validation and counted in ``Corpus.dropped``.  With
    ``strict``, every byline author must be rostered.  Rows are validated a
    block at a time, straight into the corpus columns, and the
    :class:`IngestError` lists every problem in line order, each row named
    by its first failing check.

    The file is read in :func:`_parts`, each but the first in a forked
    process, and the parts' results are merged into exactly what a one-part
    read returns or raises.
    """
    path = Path(path)
    excluded = {t.strip().lower() for t in excluded_doc_types}
    json_lines = path.suffix.lower() in (".jsonl", ".ndjson", ".json")
    layout = None if json_lines else _csv_layout(path, PUBLICATION_FIELDS, ())
    parts = _parts(path, json_lines)
    logger.debug("%s: read in %d part(s), from lines %s", path, len(parts),
                 ", ".join(str(before + 1) for _, before, _ in parts))
    results = _in_processes(functools.partial(_publication_part, path, layout, excluded,
                                              roster_rows, strict), parts)
    corpus = _merged_corpus(path, results)
    logger.debug("%s: %d row(s) read, %d dropped by doc type, %d kept, in %d part(s); "
                 "%d byline slot(s), %d naming a rostered professor", path,
                 sum(result["rows"] for result in results), corpus.dropped, len(corpus),
                 len(parts), corpus.author.size, np.count_nonzero(corpus.author >= 0))
    return corpus


def _parts(path: Path, json_lines: bool) -> list[tuple[int, int, int | None]]:
    """The parts to read a corpus file in: one per available core, none
    smaller than PART_BYTES, cut at line starts near equal byte offsets.

    Lines end where the readers' universal newlines end them, at "\\n",
    "\\r\\n" or a lone "\\r", so each part knows the line it starts on.  A
    CSV file with a '"' before the last cut is read whole, since a quoted
    line break could span a cut.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = path.stat().st_size
    n = min(cores, size // PART_BYTES)
    parts, start, before = [], 0, 0
    with path.open("rb") as fh:
        for k in range(1, n):
            cut = _line_start(fh, size * k // n)
            if start < cut < size:
                fh.seek(start)
                lines, quoted = _count_lines(fh, cut - start)
                if quoted and not json_lines:
                    return [WHOLE_FILE]
                parts.append((start, before, lines))
                start, before = cut, before + lines
    return [*parts, (start, before, None)]


def _line_start(fh, offset: int) -> int:
    """The first line start at or after byte ``offset`` (> 0) of binary file
    ``fh``, or the file's size if no line starts there."""
    at = offset - 1
    fh.seek(at)
    while chunk := fh.read(1 << 16):
        ends = [i for i in (chunk.find(b"\n"), chunk.find(b"\r")) if i >= 0]
        if ends:
            i = min(ends)
            if chunk[i:i + 1] == b"\r":  # a line end unless "\n" follows
                after = chunk[i + 1:i + 2] or fh.read(1)
                return at + i + 1 + (after == b"\n")
            return at + i + 1
        at += len(chunk)
    return at


def _count_lines(fh, length: int) -> tuple[int, bool]:
    """The line ends in the next ``length`` bytes of ``fh``, and whether
    they hold a '"'."""
    lines, quoted, last = 0, False, b""
    while length > 0 and (chunk := fh.read(min(length, 1 << 20))):
        length -= len(chunk)
        returns = chunk.count(b"\r")
        lines += (chunk.count(b"\n") + returns - (returns and chunk.count(b"\r\n"))
                  - (last == b"\r" and chunk[:1] == b"\n"))
        quoted = quoted or b'"' in chunk
        last = chunk[-1:]
    return lines, quoted


def _in_processes(read: Callable, parts: list) -> list:
    """``read(part)`` of every part, such as a part of a corpus file or a
    list of output files, the first in this process and each other in a
    forked child, which sends its result, or its exception, as one pickle.

    Raises the exception of the first part, in order, that raised one, with
    the child's traceback as its cause, and RuntimeError for a child that
    ends without a result.  Every child is killed if still running and
    reaped before this returns or raises.  If no pipe or process can be
    made, or ``os.fork`` does not exist, the parts not yet forked are read
    in this process, after the forked ones.

    Children are forked, not spawned: a spawned one would import numpy and
    resperf again (0.13-0.19 s), most of what a part saves.  Forking is
    safe because resperf starts no threads.
    """
    children: dict[int, int] = {}  # pid: read end of its pipe
    reaped: set[int] = set()
    here = []  # the parts after the first read in this process
    try:
        for i, part in enumerate(parts[1:], start=1):
            try:
                pid, r = _fork(read, part, list(children.values()))
            except (OSError, AttributeError) as exc:  # AttributeError: no os.fork
                logger.debug("cannot fork a worker (%s): reading parts %d-%d here",
                             exc, i + 1, len(parts))
                here = parts[i:]
                break
            children[pid] = r
        results = [read(parts[0])]
        for pid, r in children.items():
            try:
                with open(r, "rb", closefd=False) as pipe:
                    sent, value = pickle.load(pipe)
            except Exception:  # the child died before its result was whole
                reaped.add(pid)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"worker {pid} ended without a result "
                                   f"(exit status {status})") from None
            if not sent:
                error, trace = value
                raise error from RuntimeError(trace)
            results.append(value)
        return results + [read(part) for part in here]
    finally:
        for pid, r in children.items():
            os.close(r)
            if pid not in reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _fork(read: Callable, part, inherited: list[int]) -> tuple[int, int]:
    """The pid of a forked child that sends ``read(part)`` through a pipe,
    and the pipe's read end; the child closes the ``inherited`` pipe ends.
    An OSError from the pipe or the fork, or an AttributeError where there
    is no ``os.fork``, leaves no pipe end open."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except (OSError, AttributeError):
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _send(read, part, w, [*inherited, r])
    os.close(w)
    return pid, r


def _send(read: Callable, part, w: int, inherited: list[int]) -> None:
    """In a forked child: pickle ``(True, read(part))``, or ``(False,
    (the exception, its formatted traceback))``, to ``w`` as it is made,
    then exit without returning."""
    try:
        for fd in inherited:
            os.close(fd)
        try:
            message = (True, read(part))
        except BaseException as exc:  # re-raised by the parent
            trace = f"raised in the worker for part {part}:\n" + traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            message = (False, (exc, trace))
        with open(w, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _publication_part(path: Path, layout: tuple | None, excluded: set[str],
                      roster_rows: Mapping[str, int], strict: bool,
                      part: tuple[int, int, int | None]) -> dict:
    """Read and check one part of a corpus file: its row problems, rows read
    and dropped, the ``ids`` and ``lines`` of the rows that pass every check
    but the duplicate-id one, and, if it has no problem, its ``columns``
    with codes into its own ``vocabularies``, name lists in code order.
    ``author`` codes are roster rows, the same in every part."""
    problems = RowProblems(path)
    vocabularies = {name: _code_map() for name in _CODED.values()}
    ids: list[str] = []
    kept = array("q")
    buffers = _Columns(_COLUMN_DTYPES)
    n_rows = dropped = 0
    # CSV cells are strings ("" when empty); JSON values may be anything, None when absent
    for lines, cells in _part_blocks(path, part, PUBLICATION_FIELDS, layout, problems):
        n_rows += len(lines)
        drop = _mask(map(excluded.__contains__, map(str.lower, _texts(cells[5]))), len(lines))
        if drop.any():
            dropped += int(drop.sum())
            keep = (~drop).tolist()
            lines, *cells = [list(compress(column, keep)) for column in (lines, *cells)]
        if not lines:
            continue
        columns = _publication_block(problems, lines, cells, roster_rows, strict,
                                     vocabularies)
        ids += columns.pop("ids")
        kept.extend(columns.pop("lines"))
        for name, values in columns.items():
            buffers.extend(name, values)
    return {"problems": problems.found, "rows": n_rows, "dropped": dropped, "ids": ids,
            "lines": np.frombuffer(kept, np.int64),
            "columns": None if problems.found else buffers.arrays(),
            "vocabularies": {name: list(codes) for name, codes in vocabularies.items()}}


def _merged_corpus(path: Path, results: list[dict]) -> Corpus:
    """The corpus of the parts' results, in file order, or the IngestError
    listing their problems and every repeated id, in line order."""
    problems = RowProblems(path)
    problems.found = [problem for result in results for problem in result["problems"]]
    ids = list(itertools.chain.from_iterable(result["ids"] for result in results))
    if len(set(ids)) < len(ids):
        lines = np.concatenate([result["lines"] for result in results])
        seen: dict[str, int] = {}
        first = np.fromiter(map(seen.setdefault, ids, range(len(ids))), np.int64, len(ids))
        problems.start(lines)
        problems.flag(first != np.arange(len(ids)),
                      lambda i: f"duplicate publication id {ids[i]!r} "
                                f"(first seen on line {lines[first[i]]})")
    problems.raise_any()
    if not sum(result["rows"] for result in results):
        logger.warning("%s: empty publication file", path)
    # Every part's codes go through one name-to-code map per vocabulary,
    # which codes names in file order as a one-part read does, so the first
    # part's come out unchanged.
    codes = {name: _code_map() for name in _CODED.values()}
    columns = {name: [] for name in _COLUMN_DTYPES}
    for result in results:
        for name, values in result["columns"].items():
            if name in _CODED:
                names = result["vocabularies"][_CODED[name]]
                values = np.fromiter(map(codes[_CODED[name]].__getitem__, names), np.int32,
                                     len(names))[values]
            columns[name].append(values)
    return Corpus({"ids": ids, **{name: list(known) for name, known in codes.items()},
                   **{name: np.concatenate(parts) for name, parts in columns.items()}},
                  sum(result["dropped"] for result in results))


def _publication_block(problems: RowProblems, lines: list[int], cells: list,
                       roster_rows: Mapping[str, int], strict: bool,
                       vocabularies: dict[str, defaultdict]) -> dict:
    """Check one block of kept publication rows; the first failing check, in
    this order, names a row.  The ``ids`` and ``lines`` of the rows that
    pass, and while the part has no problem their other corpus columns.  The
    duplicate-id check, the last one, is left to the merge."""
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
    author = np.fromiter(map(roster_rows.get, authors, repeat(-1)), np.int64, len(authors))
    slot_row = np.repeat(rows, counts)
    # An author twice on a byline: two of its slots with one name hash (the
    # lookup above cached it), confirmed on the names, so a hash collision
    # rejects nothing.
    key = np.fromiter(map(hash, authors), np.int64, len(authors))
    order = np.lexsort((key, slot_row))
    key, pair = key[order], slot_row[order]
    twice = np.zeros(n, dtype=bool)
    for i in set(pair[1:][(pair[1:] == pair[:-1]) & (key[1:] == key[:-1])].tolist()):
        twice[i] = isinstance(_parse_byline(raw_byline[i] or ""), str)
    problems.flag(twice, lambda i: _parse_byline(raw_byline[i] or ""))
    if strict:
        listed = np.zeros(n, dtype=bool)
        listed[slot_row[author < 0]] = True
        problems.flag(listed, lambda i: "unknown author id(s) " + ", ".join(
            a for a in _parse_byline(raw_byline[i] or "")[0] if a not in roster_rows))
    if problems.found:
        good = (~problems.bad).tolist()
        return {"ids": list(compress(pid, good)), "lines": list(compress(lines, good))}
    return {"ids": pid, "lines": lines, "year": year, "citations": citations, "impact": impact,
            "n_authors": counts, "author": author,
            "category": list(map(vocabularies["categories"].__getitem__, category)),
            "university": list(map(vocabularies["universities"].__getitem__, universities))}


WRITE_ROWS = 1024  # rows per write; at 4,096 simulate's peak RSS read 2.4 MB higher
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def csv_text(header: Sequence[str], columns: Sequence, end: str) -> Iterator[str]:
    """The text of a CSV table, a chunk of rows at a time, as the csv
    module's writer formats it with line terminator ``end`` (minimal
    quoting, None as "", a float as its ``repr``), except that a cell
    holding a CR or an LF is quoted whatever ``end`` is.  One column per
    header field: a numpy array or an iterable of strings and numbers."""
    columns = [c if isinstance(c, np.ndarray) else iter(c) for c in columns]
    row = ",".join(["{}"] * len(header)) + end
    yield row.format(*_csv_cells(header))
    for at in itertools.count(0, WRITE_ROWS):
        chunk = [c[at:at + WRITE_ROWS].tolist() if isinstance(c, np.ndarray)
                 else _csv_cells(islice(c, WRITE_ROWS)) for c in columns]
        if not chunk[0]:
            return
        yield "".join(itertools.starmap(row.format, zip(*chunk)))


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write the UTF-8 CSV file of :func:`csv_text` with CRLF line ends."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(csv_text(header, columns, "\r\n"))


def _csv_cells(cells) -> list:
    """The cells as a list, None as "", and each string holding a comma, a
    quote, a CR or an LF quoted as the csv module does."""
    try:
        text = "".join(cells := list(cells))
    except TypeError:  # numbers, which need no quotes, or None among the strings
        cells = ["" if cell is None else cell for cell in cells]
        text = "".join([cell for cell in cells if isinstance(cell, str)])
    if not _NEEDS_QUOTES.search(text):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if isinstance(cell, str)
            and _NEEDS_QUOTES.search(cell) else cell for cell in cells]


def _blank_nan(values) -> list:
    """The values as a list of floats, each NaN or None as "" (an empty cell)."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), "", values.astype(object)).tolist()


def _iso(ordinal: int) -> str:
    return date.fromordinal(ordinal).isoformat() if ordinal else ""


def _names(names: Sequence[str], codes: np.ndarray) -> list[str]:
    return list(map(names.__getitem__, codes.tolist()))


def write_roster(path, roster: Roster) -> None:
    birth, appointed, start, end = (list(map(_iso, days.tolist())) for days in (
        roster.birth, roster.appointed, roster.active_start, roster.active_end))
    write_csv(path, ROSTER_FIELDS + ROSTER_OPTIONAL_FIELDS, [
        roster.ids, _names("FM", roster.male), birth, appointed,  # "FM"[male]
        _names(roster.sds_names, roster.sds), _names(roster.uda_names, roster.uda),
        _names(UNIVERSITY_TYPES, roster.utype), start, end])


def write_publications(path, corpus: Corpus, roster_ids: Sequence[str]) -> None:
    """Write ``corpus`` as a publication CSV.  A byline slot names its author
    by ``roster_ids[author]``, or, where ``author`` is -1, the k-th such slot
    in corpus order by ``COAUTHOR_NAME.format(k)``; every doc_type is
    ``DOC_TYPE``.  Bylines are built a ``WRITE_ROWS`` chunk of publications
    at a time, so no list of the whole corpus's slots is held."""
    write_csv(path, PUBLICATION_FIELDS, [
        corpus.ids, corpus.year, _names(corpus.categories, corpus.category),
        _blank_nan(corpus.impact), corpus.citations, repeat(DOC_TYPE, len(corpus)),
        itertools.chain.from_iterable(_bylines(corpus, roster_ids))])


def _bylines(corpus: Corpus, roster_ids: Sequence[str]) -> Iterator[list[str]]:
    """The byline cells of :func:`write_publications`, a list per
    ``WRITE_ROWS`` publications; co-authors are numbered on across lists."""
    names = np.array(roster_ids, dtype=object)
    at = np.array(["@" + name for name in corpus.universities], dtype=object)
    slot = named = 0
    for row in range(0, len(corpus), WRITE_ROWS):
        counts = corpus.n_authors[row:row + WRITE_ROWS].tolist()
        author = corpus.author[slot:slot + sum(counts)]
        rostered = author >= 0
        cells = np.empty(author.size, dtype=object)
        cells[rostered] = names[author[rostered]]
        others = author.size - np.count_nonzero(rostered)
        cells[~rostered] = list(map(COAUTHOR_NAME.format, range(named + 1, named + others + 1)))
        cells = iter((cells + at[corpus.university[slot:slot + author.size]]).tolist())
        yield [";".join(islice(cells, n)) for n in counts]
        slot += author.size
        named += others


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
