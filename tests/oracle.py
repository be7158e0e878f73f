"""Reference implementations: row-by-row roster and publication ingest,
per-professor covariates, scoring and percentiles, and the per-column rank
test of the exact-dependence pass.

:func:`ingest_roster` and :func:`ingest_publications` are the row loops the
block readers in ``resperf.corpus`` replaced: each row runs its chain of
checks in turn, and the first failing one names it.  They share the scalar
cell parsers with ``resperf.corpus``, and tests compare the two ingests'
columns, vocabularies and problem lists with ``==``.

The per-professor loop is the one the vectorised passes in ``resperf.corpus``,
``resperf.indicators`` and ``resperf.cohort`` replaced.  It reads the roster
and the corpus back as records from their columns.  Covariates come from
``datetime.date`` arithmetic, one professor at a time.  Scoring walks each
professor's publications in corpus order, takes each credit share from
``byline_weights`` and the byline's first and last universities, and ranks
each cohort with a Python tie loop.  It calls neither
``Corpus.authored_by`` nor ``fractional_contribution``, which it checks.
The vectorised code adds the same terms in the same order, so tests compare
the two with ``==``.  :func:`exact_dependence` runs one ``matrix_rank`` per
column, where ``resperf.regress.collinearity_check`` factorises once.
:func:`write_publications` names every byline slot of the corpus at once,
where ``resperf.corpus.write_publications`` names a chunk of them at a time;
tests compare the two files byte for byte.
:func:`_read_frame` and :func:`_read_indicators` are the block loops that
read compute's covariates.csv, percentiles.csv and indicators.csv back
before ``resperf.corpus.read_columns`` did, kept as they were; they share
``read_blocks``, ``RowProblems`` and the cell parsers with ``resperf.corpus``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
from array import array
from datetime import date
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from helpers import Prof, Pub, professors, records
from resperf.corpus import (COAUTHOR_NAME, DAYS_PER_YEAR, DEFAULT_EXCLUDED_DOC_TYPES,
                            DOC_TYPE, MAX_CITATIONS, MIN_APPOINTMENT_AGE, PUBLICATION_FIELDS,
                            RECENT_PROMOTION_YEARS, ROSTER_FIELDS, ROSTER_OPTIONAL_FIELDS,
                            UNIVERSITY_TYPES, Corpus, IngestError, Roster, RowProblems,
                            _blank_nan, _mask, _names, _parse_byline, _real_number,
                            _real_numbers, _whole_number, read_blocks, write_csv)
from resperf.credit import ConventionMap, byline_weights
from resperf.indicators import INDICATORS, MissingCellError
from resperf.regress import RegressionFrame

logger = logging.getLogger("resperf.indicators")


def csv_rows(path, required: Sequence[str], optional: Sequence[str] = ()) -> Iterator:
    """(line, fields in ``required + optional`` order) for each row of a CSV
    file with a header line; short rows and absent optional columns read ""."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestError(path, [f"line 1: missing column(s) {', '.join(missing)}"])
        width = len(header)
        column = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*(column.get(c, width) for c in (*required, *optional)))
        for row in reader:
            if row:
                if len(row) != width:
                    row = (row + [""] * width)[:width]
                row.append("")
                yield reader.line_num, pick(row)


def json_rows(path, fields: Sequence[str], problems: list[str]) -> Iterator:
    """(line, values of ``fields``, None where absent) for each object line of
    a JSON-lines file; other lines add a problem to ``problems``."""
    with Path(path).open(encoding="utf-8-sig") as fh:
        for line, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"line {line}: invalid JSON ({exc.msg})")
                continue
            except ValueError as exc:  # an integer over sys.get_int_max_str_digits() digits
                problems.append(f"line {line}: invalid JSON ({exc})")
                continue
            except RecursionError:
                problems.append(f"line {line}: invalid JSON (nested too deeply)")
                continue
            if not isinstance(record, dict):
                problems.append(
                    f"line {line}: expected a JSON object, got {type(record).__name__}")
                continue
            yield line, map(record.get, fields)


def _parse_date(text: str, what: str, problems: list[str], line: int) -> date | None:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        problems.append(f"line {line}: unparseable {what} {text!r}")
        return None


def _parse_gender(text: str, problems: list[str], line: int) -> bool | None:
    token = text.strip().lower()
    if token in ("m", "male"):
        return True
    if token in ("f", "female"):
        return False
    problems.append(f"line {line}: gender must be M or F, got {text!r}")
    return None


def ingest_roster(path, sds_map: Mapping[str, str] | None = None) -> Roster:
    """The roster, read and checked one row at a time."""
    path = Path(path)
    kept: list[tuple] = []
    sds_codes: dict[str, int] = {}
    uda_codes: dict[str, int] = {}
    problems: list[str] = []
    seen: dict[str, int] = {}
    sds_to_uda: dict[str, tuple[str, int]] = {}
    for line, (pid, gender, birth, appointed, sds, uda, utype_raw, s_raw, e_raw) in \
            csv_rows(path, ROSTER_FIELDS, ROSTER_OPTIONAL_FIELDS):
        pid = pid.strip()
        if not pid:
            problems.append(f"line {line}: empty id")
            continue
        if ";" in pid or "@" in pid:
            problems.append(f"line {line}: id {pid!r} holds ';' or '@', so no byline can name it")
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
        elif (age := whole_years(birth, appointed)) < MIN_APPOINTMENT_AGE:
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
    ids, male, birth, appointed, sds, uda, utype, start, end, lines = \
        map(list, zip(*kept)) if kept else [[]] * 10
    return Roster(ids, male, birth, appointed, sds, list(sds_codes), uda,
                  list(uda_codes), utype, start, end, np.array(lines, dtype=np.int64),
                  str(path))


class ColumnBuffer:
    """Growable corpus columns; strings are interned into codes as they
    arrive, and authors coded by ``roster_rows``, -1 if not rostered."""

    DTYPES = {"year": "q", "category": "i", "citations": "q", "impact": "d",
              "n_authors": "i", "author": "i", "university": "i"}

    def __init__(self, roster_rows: Mapping[str, int]):
        self.roster_rows = roster_rows
        self.ids: list[str] = []
        for name, code in self.DTYPES.items():
            setattr(self, name, array(code))
        self.categories: dict[str, int] = {}
        self.universities: dict[str, int] = {}

    def append(self, pid, year, category, impact, citations, authors, universities) -> None:
        self.ids.append(pid)
        self.year.append(year)
        self.category.append(self.categories.setdefault(category, len(self.categories)))
        self.citations.append(citations)
        self.impact.append(impact)
        self.n_authors.append(len(authors))
        self.author.extend([self.roster_rows.get(a, -1) for a in authors])
        self.university.extend([self.universities.setdefault(u, len(self.universities))
                                for u in universities])

    def columns(self) -> dict:
        vocabularies = ("categories", "universities")
        return {name: list(value) if name in vocabularies else value
                for name, value in vars(self).items() if name != "roster_rows"}


def ingest_publications(path, roster_rows: Mapping[str, int],
                        excluded_doc_types: Iterable[str] = DEFAULT_EXCLUDED_DOC_TYPES,
                        strict: bool = False) -> Corpus:
    """The publication corpus, read and checked one row at a time."""
    path = Path(path)
    excluded = {t.strip().lower() for t in excluded_doc_types}
    buffer = ColumnBuffer(roster_rows)
    problems: list[str] = []
    seen: dict[str, int] = {}
    dropped = 0
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        rows = json_rows(path, PUBLICATION_FIELDS, problems)
    else:
        rows = csv_rows(path, PUBLICATION_FIELDS)
    for line, (pid, year, category, journal_if, citations, doc_type, byline) in rows:
        if str(doc_type or "").strip().lower() in excluded:
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
        elif strict and (unknown := [a for a in byline[0] if a not in roster_rows]):
            problem = f"unknown author id(s) {', '.join(unknown)}"
        elif pid in seen:
            problem = f"duplicate publication id {pid!r} (first seen on line {seen[pid]})"
        else:
            seen[pid] = line
            buffer.append(pid, year_value, category, impact, cites, *byline)
            continue
        problems.append(f"line {line}: {problem}")
    if problems:
        raise IngestError(path, problems)
    return Corpus(buffer.columns(), dropped)


def write_publications(path, corpus: Corpus, roster_ids: Sequence[str]) -> None:
    """``corpus`` as a publication CSV, every slot's author named up front:
    ``roster_ids[author]``, or the k-th slot coded -1 as
    ``COAUTHOR_NAME.format(k)``."""
    rostered = corpus.author >= 0
    authors = np.empty(corpus.author.size, dtype=object)
    authors[rostered] = np.array(roster_ids, dtype=object)[corpus.author[rostered]]
    others = authors.size - np.count_nonzero(rostered)
    authors[~rostered] = list(map(COAUTHOR_NAME.format, range(1, others + 1)))
    slots = zip(authors.tolist(), corpus.university.tolist())
    write_csv(path, PUBLICATION_FIELDS, [
        corpus.ids, corpus.year, _names(corpus.categories, corpus.category),
        _blank_nan(corpus.impact), corpus.citations, repeat(DOC_TYPE, len(corpus)),
        (";".join([f"{a}@{corpus.universities[u]}" for a, u in islice(slots, n)])
         for n in corpus.n_authors.tolist())])


def exact_years(start: date, end: date) -> float:
    return (end - start).days / DAYS_PER_YEAR


def whole_years(start: date, end: date) -> int:
    """Completed years from start to end (anniversary arithmetic)."""
    years = end.year - start.year
    if (end.month, end.day) < (start.month, start.day):
        years -= 1
    return years


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


def derive_covariates(professor: Prof, census_date: date,
                      window: tuple[int, int]) -> dict:
    """One professor's covariates, keyed like the columns of
    ``resperf.corpus.derive_covariates``."""
    if census_date <= professor.birth_date:
        raise ValueError(f"{professor.id}: census date before birth")
    if census_date < professor.appointment_date:
        raise ValueError(f"{professor.id}: census date before appointment")
    age = exact_years(professor.birth_date, census_date)
    seniority = exact_years(professor.appointment_date, census_date)
    t = working_years(professor.span, window)
    if t <= 0:
        raise ValueError(f"{professor.id}: no working years inside window {window}")
    utype = professor.university_type
    return {
        "age": age,
        "seniority": seniority,
        "age_years": whole_years(professor.birth_date, census_date),
        "seniority_years": whole_years(professor.appointment_date, census_date),
        "gender_dummy": 1 if professor.gender == "male" else 0,
        "u1": 1 if utype == "private" else 0,
        "u2": 1 if utype == "advanced_school" else 0,
        "u3": 1 if utype == "polytechnic" else 0,
        "t": t,
        "recently_promoted": seniority < RECENT_PROMOTION_YEARS,
    }


# A (year, subject category) cell's (mean citations over its cited
# publications, mean impact factor over those with a known one); None where
# the cell has none.
Scaling = Mapping[tuple[int, str], tuple[float | None, float | None]]


def scaling_table(pubs: list[Pub]) -> Scaling:
    cited: dict[tuple[int, str], list[int]] = {}
    impact: dict[tuple[int, str], list[float]] = {}
    keys: dict[tuple[int, str], None] = {}
    for pub in pubs:
        key = (pub.year, pub.subject_category)
        keys[key] = None
        if pub.citations > 0:
            cited.setdefault(key, []).append(pub.citations)
        if pub.journal_if is not None:
            impact.setdefault(key, []).append(pub.journal_if)
    return {key: (sum(cited[key]) / len(cited[key]) if key in cited else None,
                  sum(impact[key]) / len(impact[key]) if key in impact else None)
            for key in keys}


def publications_by_author(pubs: list[Pub], window: tuple[int, int]
                           ) -> dict[str, list[tuple[Pub, int]]]:
    """Each author's in-window (publication, byline position) pairs, in corpus order."""
    out: dict[str, list[tuple[Pub, int]]] = {}
    for pub in pubs:
        if window[0] <= pub.year <= window[1]:
            for pos, (author, _) in enumerate(pub.byline):
                out.setdefault(author, []).append((pub, pos))
    return out


def _citation_ratio(pub: Pub, scaling: Scaling) -> float:
    """c / cbar; a cited publication is in its own cell's cited mean."""
    if pub.citations == 0:
        return 0.0
    return pub.citations / scaling[pub.year, pub.subject_category][0]


def _impact_ratio(pub: Pub, scaling: Scaling, strict: bool, owner: str) -> float | None:
    if pub.journal_if is None:
        if strict:
            raise MissingCellError(f"{owner}: publication {pub.id} has no impact factor")
        logger.warning("%s: skipping %s, unknown impact factor", owner, pub.id)
        return None
    ifbar = scaling[pub.year, pub.subject_category][1]
    if ifbar is None or ifbar == 0:
        if strict:
            raise MissingCellError(
                f"{owner}: no impact-factor scaling cell for "
                f"({pub.year}, {pub.subject_category!r})")
        logger.warning("%s: skipping %s, no impact-factor scaling cell for (%s, %s)",
                       owner, pub.id, pub.year, pub.subject_category)
        return None
    return pub.journal_if / ifbar


def _working_years(professor: Prof, window: tuple[int, int]) -> float:
    t = working_years(professor.span, window)
    if t <= 0:
        raise ValueError(f"{professor.id}: no working years inside window {window}")
    return t


def compute_fss(professor, pubs, scaling, conventions, window):
    t = _working_years(professor, window)
    convention = conventions.resolve(professor.sds, professor.uda)
    total = 0.0
    for pub, pos in pubs:
        ratio = _citation_ratio(pub, scaling)
        if ratio == 0.0:
            continue
        shared = pub.byline[0][1] == pub.byline[-1][1]
        total += ratio * byline_weights(len(pub.byline), convention, shared)[pos]
    return total / t


def compute_p(professor, pubs, window):
    return len(pubs) / _working_years(professor, window)


def compute_ia(pubs, scaling):
    num = 0.0
    for pub, _ in pubs:
        num += _citation_ratio(pub, scaling)
    return num / len(pubs) if pubs else None


def compute_ij(professor, pubs, scaling, strict=False):
    num, count = 0.0, 0
    for pub, _ in pubs:
        ratio = _impact_ratio(pub, scaling, strict, professor.id)
        if ratio is None:
            continue
        num += ratio
        count += 1
    return num / count if count else None


def compute_scores(professor: Prof, pubs: list[tuple[Pub, int]],
                   scaling: Scaling, conventions: ConventionMap,
                   window: tuple[int, int], strict: bool = False) -> tuple:
    """One professor's (FSS, P, IA, IJ, n_pubs) from their in-window
    (publication, position) pairs; an undefined IA or IJ is None."""
    return (compute_fss(professor, pubs, scaling, conventions, window),
            compute_p(professor, pubs, window),
            compute_ia(pubs, scaling),
            compute_ij(professor, pubs, scaling, strict),
            len(pubs))


def roster_scores(roster, corpus, conventions, window, strict=False):
    """Score columns, as ``resperf.indicators.compute_scores`` returns them,
    built one professor at a time, with cell means from ``corpus``."""
    pubs = records(corpus, roster.ids)
    scaling = scaling_table(pubs)
    by_author = publications_by_author(pubs, window)
    rows = [compute_scores(p, by_author.get(p.id, []), scaling, conventions, window, strict)
            for p in professors(roster)]
    columns = list(zip(*rows)) or [()] * 5
    out = {name: np.array([math.nan if v is None else v for v in values], dtype=float)
           for name, values in zip(INDICATORS, columns)}
    out["n_pubs"] = np.array(columns[4], dtype=np.int64)
    return out


def percentile_rank(values) -> list[float]:
    n = len(values)
    arr = np.asarray(values, dtype=float)
    if n == 1:
        return [50.0]
    order = np.argsort(arr, kind="mergesort")
    sorted_vals = arr[order]
    ranks = np.empty(n, dtype=float)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1  # 1-based midrank
        i = j + 1
    return (100.0 * (ranks - 1.0) / (n - 1)).tolist()


def cohort_percentiles(roster, scores) -> np.ndarray:
    """(n, 4) percentile matrix, NaN where unranked, one cohort at a time."""
    groups: dict[str, list[int]] = {}
    for i, prof in enumerate(professors(roster)):
        groups.setdefault(prof.sds, []).append(i)
    out = np.full((len(roster), len(INDICATORS)), math.nan)
    for members in groups.values():
        for j, indicator in enumerate(INDICATORS):
            holders = [i for i in members if not math.isnan(scores[indicator][i])]
            if not holders:
                continue
            values = [float(scores[indicator][i]) for i in holders]
            for i, pct in zip(holders, percentile_rank(values)):
                out[i, j] = pct
    return out


def exact_dependence(X: np.ndarray) -> tuple[list[int], list[int]]:
    """Kept and dropped columns of the greedy exact-dependence pass: left to
    right, a column is kept when it raises ``matrix_rank`` of the kept ones."""
    kept: list[int] = []
    dropped: list[int] = []
    for j in range(X.shape[1]):
        raises = np.linalg.matrix_rank(X[:, kept + [j]]) == len(kept) + 1
        (kept if raises else dropped).append(j)
    return kept, dropped


_COVARIATE_COLUMNS = ("professor_id", "uda", "age", "seniority", "gender_dummy", "u1", "u2", "u3")
_PERCENTILE_COLUMNS = ("professor_id", "indicator", "percentile")
_INDICATOR_CODES = {name: code for code, name in enumerate(INDICATORS)}
_DUMMIES = {"0": 0.0, "1": 1.0}
# Exclusive bound on age and seniority: compute writes values below it,
# since roster dates fall in years 1 to 9999.
_MAX_YEARS = 10_000


def _read_frame(cov_path: Path, pct_path: Path) -> RegressionFrame:
    """compute's covariates.csv and percentiles.csv, validated, as one frame."""
    problems = RowProblems(cov_path)
    index: dict[str, int] = {}
    udas: list[str] = []
    numbers: list[np.ndarray] = []
    for lines, (pid, uda, *cells) in read_blocks(cov_path, _COVARIATE_COLUMNS):
        n = len(lines)
        problems.start(lines)
        row = range(len(udas), len(udas) + n)
        first = list(map(index.setdefault, pid, row))
        problems.flag(np.array(first) != row,
                      lambda i: f"duplicate professor_id {pid[i]!r}", stop=False)
        problems.flag(_mask(map(operator.not_, map(str.strip, uda)), n),
                      lambda i: "empty uda", stop=False)
        block = np.empty((n, len(cells)))
        for j, (name, texts) in enumerate(zip(_COVARIATE_COLUMNS[2:], cells)):
            if name in ("age", "seniority"):
                block[:, j] = values = _real_numbers(texts)[0]
                problems.flag(~np.isfinite(values), lambda i: f"{name} must be a finite "
                                                              f"number, got {texts[i]!r}",
                              stop=False)
                problems.flag(~((values >= 0) & (values < _MAX_YEARS)) & np.isfinite(values),
                              lambda i: f"{name} must be in [0, {_MAX_YEARS}), "
                                        f"got {texts[i]!r}", stop=False)
            else:
                block[:, j] = values = np.array(list(map(_DUMMIES.get, texts)), np.float64)
                problems.flag(np.isnan(values),
                              lambda i: f"{name} must be 0 or 1, got {texts[i]!r}", stop=False)
        udas += uda
        numbers.append(block)
    problems.raise_any()

    problems = RowProblems(pct_path)
    percentiles = np.full((len(udas), len(INDICATORS)), np.nan)
    for lines, (pid, indicator, texts) in read_blocks(pct_path, _PERCENTILE_COLUMNS):
        n = len(lines)
        problems.start(lines)
        row = np.fromiter(map(index.get, pid, repeat(-1)), np.int64, n)
        problems.flag(row < 0, lambda i: f"unknown professor_id {pid[i]!r}")
        column = np.fromiter(map(_INDICATOR_CODES.get, indicator, repeat(-1)), np.int64, n)
        problems.flag(column < 0, lambda i: f"unknown indicator {indicator[i]!r}")
        values = _real_numbers(texts)[0]
        problems.flag(~((values >= 0.0) & (values <= 100.0)),
                      lambda i: f"percentile must be finite and in [0, 100], got {texts[i]!r}")
        # a (professor, indicator) set on an earlier line, of an earlier block or this one
        good = np.flatnonzero(~problems.bad)
        _, first = np.unique(row[good] * len(INDICATORS) + column[good], return_index=True)
        repeated = np.zeros(n, dtype=bool)
        repeated[good] = True
        repeated[good[first]] = False
        repeated[good] |= ~np.isnan(percentiles[row[good], column[good]])
        problems.flag(repeated, lambda i: f"second {indicator[i]} percentile for {pid[i]!r}")
        ok = np.flatnonzero(~problems.bad)
        percentiles[row[ok], column[ok]] = values[ok]
    problems.raise_any()

    numbers = np.concatenate(numbers) if numbers else np.zeros((0, 6))
    return RegressionFrame(uda=np.array(udas, dtype=str),
                           age=numbers[:, 0], covariates=numbers[:, 1:], percentiles=percentiles)


_INDICATOR_COLUMNS = ("professor_id", "fss", "p", "ia", "ij", "n_pubs")
# Most digits of an n_pubs count: it must fit in an int64.
_MAX_COUNT_DIGITS = 18


def _read_indicators(path: Path) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """compute's indicators.csv, validated: each professor id's row, and the
    fss and n_pubs columns."""
    problems = RowProblems(path)
    rows: dict[str, int] = {}
    fss: list[np.ndarray] = []
    n_pubs: list[np.ndarray] = []
    for lines, (pid, *cells, count) in read_blocks(path, _INDICATOR_COLUMNS):
        n = len(lines)
        problems.start(lines)
        row = range(len(rows), len(rows) + n)
        problems.flag(np.array(list(map(rows.setdefault, pid, row))) != row,
                      lambda i: f"duplicate professor_id {pid[i]!r}", stop=False)
        for name, texts in zip(_INDICATOR_COLUMNS[1:5], cells):
            values = _real_numbers(texts)[0]
            optional = name in ("ia", "ij")
            invalid = ~(np.isfinite(values) & (values >= 0))
            if optional:
                invalid &= _mask(map(operator.truth, texts), n)
            problems.flag(invalid, lambda i: f"{name} must be a finite number >= 0"
                                             f"{' or empty' if optional else ''}, "
                                             f"got {texts[i]!r}", stop=False)
            if name == "fss":
                fss.append(values)
        whole = _mask(map(operator.and_, map(str.isascii, count), map(str.isdigit, count)), n)
        problems.flag(~whole,
                      lambda i: f"n_pubs must be a whole number >= 0, got {count[i]!r}",
                      stop=False)
        large = whole & _mask((len(c.lstrip("0")) > _MAX_COUNT_DIGITS for c in count), n)
        problems.flag(large, lambda i: f"n_pubs must be below 10^{_MAX_COUNT_DIGITS}, "
                                       f"got {count[i]!r}", stop=False)
        n_pubs.append(np.array([int(c) if w else 0
                                for c, w in zip(count, (whole & ~large).tolist())],
                               dtype=np.int64))
    problems.raise_any()
    return (rows, np.concatenate(fss) if fss else np.zeros(0),
            np.concatenate(n_pubs) if n_pubs else np.zeros(0, np.int64))
