"""The block readers against the row-by-row reference ingest in ``oracle``.

Each file is ingested twice, by ``resperf.corpus`` with its block size cut to
2 or 3 rows and by the oracle's row loop.  Both must return the same columns,
vocabularies, dropped count and author codes, or raise the same problem list.
"""

import csv
import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import resperf.corpus
from resperf.corpus import IngestError

PUBLICATION_HEADER = ["id", "year", "subject_category", "journal_if", "citations",
                      "doc_type", "byline"]
ROSTER_HEADER = ["id", "gender", "birth_date", "appointment_date", "sds", "uda",
                 "university_type", "active_start", "active_end"]


def outcome(ingest, *args, **kwargs):
    """What an ingest returns, as plain values, or its problem list."""
    try:
        result = ingest(*args, **kwargs)
    except IngestError as exc:
        return "problems", exc.source, exc.problems
    values = {name: value.tolist() if isinstance(value, np.ndarray) else value
              for name, value in vars(result).items() if not name.startswith("_")}
    if "impact" in values:
        values["impact"] = [None if math.isnan(x) else x for x in values["impact"]]
    return "columns", values


def both(ingest_name, block_rows, *args, **kwargs):
    with mock.patch.object(resperf.corpus, "BLOCK_ROWS", block_rows):
        bulk = outcome(getattr(resperf.corpus, ingest_name), *args, **kwargs)
    return bulk, outcome(getattr(oracle, ingest_name), *args, **kwargs)


# The roster rows bylines are read against: P4 and the X authors are not on it.
ROSTER_ROWS = {"P0": 0, "P1": 1, "P2": 2, "P3": 3}


def publication_rows(n: int) -> list[list]:
    """n valid rows; authors recur across rows, never within a byline."""
    return [[f"W{i}", 2006 + i % 5, f"SC{i % 3}", [1.5, None, 0.25][i % 3], i % 4,
             ["article", "review"][i % 2],
             [f"P{(i + k) % 5}@U{(i + 2 * k) % 3}" for k in range(1 + i % 3)]]
            for i in range(n)]


ABSENT = object()  # a JSON key left out


def write_publications(path, rows, as_json: bool, extra: str | None = None) -> None:
    """rows as a CSV or JSON-lines corpus; ``extra`` is a line put in the middle
    (JSON lines) or a blank row (CSV)."""
    if as_json:
        lines = [json.dumps({k: v for k, v in zip(PUBLICATION_HEADER, row) if v is not ABSENT})
                 + "\n" for row in rows]
        if extra:
            lines.insert(len(lines) // 2, extra)
        path.write_text("".join(lines), encoding="utf-8")
        return
    cells = [["" if v is None or v is ABSENT else ";".join(map(str, v))
              if isinstance(v, list) else str(v) for v in row] for row in rows]
    if extra:
        cells.insert(len(cells) // 2, [])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PUBLICATION_HEADER)
        writer.writerows(cells)


# Cells written into one column of a publication row; lists are bylines.
PUBLICATION_EDGES = {
    0: ["", " ", "W0", "W1", " W2 ", ABSENT],
    1: ["", "1899", "2101", "20x8", "2008.0", 2008.5, True, None, 10 ** 30],
    2: ["", " ", None, 7, ABSENT],
    3: ["", " ", "nan", "inf", "-1", "abc", -0.5, True, 10 ** 400, None, ABSENT],
    4: ["", "-1", "0", "3.7", 3.0, 2 ** 53, 2 ** 53 + 1, 2 ** 64, True, None],
    5: ["", "Editorial Material", "reply", " review ", None, 5],
    6: ["", "P1@U1;P1@U2", "P1@U1;;X1@U2", "P1@U1@U2", "@U1", "P1@", " P1@U1 ",
        "P1 @U1", "P1@U1;X 1@U 2", "P1@U1;X1@U2;", "Pè@Ü1", "P1@U1,X1@U2", 'P"1@U1',
        [], ["P1@U1", 5], ["P1@U1", "X1@U1;X2@U2"], ["P1@U1", " "], 5, None, ABSENT],
}


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 7), block_rows=st.sampled_from([2, 3]), as_json=st.booleans(),
       changes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.data()),
                        max_size=3),
       coauthors=st.lists(st.tuples(st.integers(0, 6), st.lists(
           st.sampled_from(["X1", "X2", "X3", "P1", "P4"]), min_size=1, max_size=3)),
           max_size=3),
       extra=st.sampled_from([None, "\n", "[1]\n", '{"id": "W9"\n']),
       strict=st.booleans())
def test_publications_match_the_row_loop(tmp_path_factory, n, block_rows, as_json,
                                         changes, coauthors, extra, strict):
    """Valid rows, with co-authors added, some of them on the roster, some
    repeated on a byline, and up to three cells set to edge values."""
    rows = publication_rows(n)
    for row, names in coauthors:
        rows[row % n][6] += [f"{name}@U{k}" for k, name in enumerate(names)]
    for row, column, data in changes:
        rows[row % n][column] = data.draw(st.sampled_from(PUBLICATION_EDGES[column]))
    path = tmp_path_factory.mktemp("pubs") / ("pubs.jsonl" if as_json else "pubs.csv")
    write_publications(path, rows, as_json, extra)
    bulk, reference = both("ingest_publications", block_rows, path, ROSTER_ROWS,
                           strict=strict)
    assert bulk == reference


def test_block_edges(tmp_path):
    """A duplicate id, a flagged row and a duplicate author, at every
    position in and across blocks of 2 and 3 rows."""
    for block_rows in (2, 3):
        for at in range(1, 7):
            for kind in ("duplicate id", "flagged", "duplicate author", "all"):
                rows = publication_rows(7)
                if kind in ("duplicate id", "all"):
                    rows[at][0] = rows[at - 1][0]
                if kind in ("flagged", "all"):
                    rows[(at + 1) % 7][1] = "1800"
                if kind in ("duplicate author", "all"):
                    rows[at - 1][6] = ["P1@U1", "P2@U2", "P1@U3"]
                for suffix in ("csv", "jsonl"):
                    path = tmp_path / f"pubs{block_rows}-{at}-{kind}.{suffix}"
                    write_publications(path, rows, suffix == "jsonl")
                    bulk, reference = both("ingest_publications", block_rows, path, ROSTER_ROWS)
                    assert bulk == reference
                    assert bulk[0] == "problems"


def test_a_quoted_line_break_across_blocks(tmp_path):
    """A quoted cell spanning lines sends its block to the csv module, which
    may read past the block; line numbers stay those of the file."""
    rows = publication_rows(6)
    rows[1][5] = "article\nwith a break"
    rows[2][1] = "1800"
    rows[4][1] = "1700"
    path = tmp_path / "pubs.csv"
    write_publications(path, rows, False)
    for block_rows in (2, 3):
        bulk, reference = both("ingest_publications", block_rows, path, ROSTER_ROWS)
        assert bulk == reference
        assert bulk[2] == ["line 5: year 1800 out of range", "line 7: year 1700 out of range"]


GOOD_ROSTER_ROW = ["P{}", "M", "1955-02-10", "1990-10-01", "MAT/01", "MAT", "public", "", ""]
# Birth dates 1970-10-01 and 1970-10-02 put the appointment at 20 and at 19.
ROSTER_EDGES = ["", " ", "P0", "P1", "x", "f", "Female", "1955-13-01", "2009-02-29",
                "1970-10-01", "1970-10-02", "2008-01-01", "2010-12-31", "BIO/05", "BIO",
                "MAT/02", "Polytechnic", "gymnasium"]
SPANS = [("2007-01-01", "2010-12-31"), ("2010-01-01", "2008-01-01"), ("x", "2010-13-01"),
         ("2008-02-30", ""), ("", " 2008-01-01 ")]


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 7), block_rows=st.sampled_from([2, 3]),
       changes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8),
                                  st.sampled_from(ROSTER_EDGES)), max_size=4),
       spans=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(SPANS)), max_size=2),
       cut=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, 9))),
       with_map=st.booleans())
def test_roster_matches_the_row_loop(tmp_path_factory, n, block_rows, changes, spans, cut,
                                     with_map):
    """Valid rows, a third of them in another field, with up to four cells
    set to edge values, up to two spans set and one row cut short."""
    rows = [[GOOD_ROSTER_ROW[0].format(i), *GOOD_ROSTER_ROW[1:]] for i in range(n)]
    for i in range(0, n, 3):
        rows[i][4:6] = ["BIO/05", "BIO"]
    for row, span in spans:
        rows[row % n][7:9] = span
    for row, column, text in changes:
        rows[row % n][column] = text
    if cut is not None:
        rows[cut[0] % n] = rows[cut[0] % n][:cut[1]]
    path = tmp_path_factory.mktemp("roster") / "roster.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROSTER_HEADER)
        writer.writerows(rows)
    sds_map = {"MAT/01": "MAT", "BIO/05": "BIO", "MAT/02": "BIO"} if with_map else None
    bulk, reference = both("ingest_roster", block_rows, path, sds_map)
    assert bulk == reference


def test_every_single_cell_edge(tmp_path):
    """Each edge value in each column of one row among valid ones, and each
    span, through both ingests."""
    for column, edges in PUBLICATION_EDGES.items():
        for k, value in enumerate(edges):
            for suffix in ("csv", "jsonl"):
                rows = publication_rows(4)
                rows[2][column] = value
                path = tmp_path / f"pubs{column}-{k}.{suffix}"
                write_publications(path, rows, suffix == "jsonl")
                bulk, reference = both("ingest_publications", 3, path, ROSTER_ROWS)
                assert bulk == reference
    for column in range(len(GOOD_ROSTER_ROW)):
        for k, text in enumerate([*ROSTER_EDGES, *(span for pair in SPANS for span in pair)]):
            rows = [[f"P{i}", *GOOD_ROSTER_ROW[1:]] for i in range(4)]
            rows[2][column] = text
            path = tmp_path / f"roster{column}-{k}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([ROSTER_HEADER, *rows])
            bulk, reference = both("ingest_roster", 3, path)
            assert bulk == reference


# Keys of the generated JSON objects; U+001F is the marker of the block decode.
JSON_KEYS = ("a", "b", "id", "\x1f")
# Lines that a block decode must not take at face value, or that fail alone.
JSON_EDGE_LINES = [
    '{"a": [1', "2]}, {}",  # two objects joined, neither one alone
    '{"a": [1', "2]}, {}, {}",  # as many elements as a sound join gives
    "1, 2", '{"a": 1}, {"b": 2}', '{"a": 1},',
    '{"a": "\\u001f"}', '{"a": "\\u001F"}', '{"\\u001f": 1}', '"\\u001f"',
    '{"a": "\\\\u001f"}', '{"a": "x\\\\"}', '{"a": "\\"\\n\\t\\u00e9"}', '{"a": "\\',
    "", " ", "\t \x0c", "\x1f",
    "[1]", '"s"', "3", "null", "true", "NaN",
    '\ufeff{"a": 1}',
    '{"a": 1' + "0" * 5000 + "}", '{"a": 1' + "0" * 4299 + "}", '{"a": 1e999}',
    '{"a": NaN, "b": -Infinity}', '{"a": 1, "a": 2}', "{", '{"a": }', "}",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)
JSON_OBJECT_LINES = st.builds(
    json.dumps, st.dictionaries(st.sampled_from(JSON_KEYS), JSON_VALUES, max_size=3),
    ensure_ascii=st.booleans())
# Runs of lines: objects, edge lines, and the pairs of lines whose join looks sound.
JSON_LINES = st.lists(st.lists(JSON_OBJECT_LINES | st.sampled_from(JSON_EDGE_LINES),
                               min_size=1, max_size=3)
                      | st.sampled_from([JSON_EDGE_LINES[:2], JSON_EDGE_LINES[2:4]]),
                      max_size=4).map(
    lambda runs: [line for run in runs for line in run])


@settings(deadline=None, max_examples=300)
@given(texts=JSON_LINES, block_rows=st.sampled_from([2, 3, 512]), crlf=st.booleans())
def test_json_blocks_match_the_line_loop(tmp_path_factory, texts, block_rows, crlf):
    """Lines read a block at a time give the records, problems and order of
    the oracle's line-by-line decode."""
    path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
    path.write_bytes("".join(t + ("\r\n" if crlf else "\n") for t in texts).encode("utf-8"))
    problems = resperf.corpus.RowProblems(path)
    with mock.patch.object(resperf.corpus, "BLOCK_ROWS", block_rows):
        bulk = [(line, *values) for lines, cells in
                resperf.corpus._part_blocks(path, resperf.corpus.WHOLE_FILE, JSON_KEYS, None,
                                            problems)
                for line, *values in zip(lines, *cells)]
    reference_problems: list[str] = []
    reference = [(line, *values) for line, values in
                 oracle.json_rows(path, JSON_KEYS, reference_problems)]
    assert repr(bulk) == repr(reference)  # repr: NaN equals NaN
    assert [f"line {line}: {message}" for line, message in problems.found] == \
        reference_problems


@settings(deadline=None, max_examples=300)
@given(texts=JSON_LINES)
def test_a_block_decode_is_each_line_alone(texts):
    """Wherever the block decode is taken, each line decodes alone to its
    object; the edge lines above make it fall back."""
    records = resperf.corpus._json_array([t + "\n" for t in texts])
    if records is not None:
        assert repr(records) == repr([json.loads(t) for t in texts])


def test_json_edge_lines_fall_back():
    """A line that is not exactly one object sends its block line by line,
    and so does one spelling the marker; valid neighbours decode as a block."""
    good = '{"a": 1}'
    assert resperf.corpus._json_array([good, good]) == [{"a": 1}, {"a": 1}]
    assert resperf.corpus._json_array([]) is None
    assert json.loads('[{"a": [1, 2]}, {}]') == [{"a": [1, 2]}, {}]  # the unsound join
    for edge in JSON_EDGE_LINES:
        try:
            alone = json.loads(edge)
        except ValueError:
            alone = None
        if edge.isspace() or edge == "":
            continue
        records = resperf.corpus._json_array([good, edge, good])
        if isinstance(alone, dict) and "\\u001" not in edge.lower():
            assert repr(records) == repr([{"a": 1}, alone, {"a": 1}]), edge
        else:
            assert records is None, edge
    assert resperf.corpus._json_array(JSON_EDGE_LINES[:2]) is None
    assert resperf.corpus._json_array(JSON_EDGE_LINES[2:4]) is None


def test_a_block_too_deep_as_an_array_goes_line_by_line(tmp_path):
    """A line may decode alone and still be one level too deep inside the
    block's array; that block is read line by line."""
    path = tmp_path / "lines.jsonl"
    path.write_text('{"id": "W1"}\n{"id": "W2"}\n', encoding="utf-8")
    loads = json.loads

    def shallow(text, *args, **kwargs):
        if text.startswith("["):
            raise RecursionError("maximum recursion depth exceeded")
        return loads(text, *args, **kwargs)

    problems = resperf.corpus.RowProblems(path)
    with mock.patch.object(json, "loads", shallow):
        blocks = list(resperf.corpus._part_blocks(path, resperf.corpus.WHOLE_FILE, ["id"],
                                                  None, problems))
    assert blocks == [([1, 2], [["W1", "W2"]])] and problems.found == []
