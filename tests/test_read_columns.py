"""The declared-column reader regress and report read compute's files with.

``resperf.corpus.read_columns`` replaced the block loops kept in
``oracle._read_frame`` and ``oracle._read_indicators``.  A Hypothesis
property writes covariates.csv, percentiles.csv and indicators.csv with
edited cells and rows, reads them in blocks of 1 to 512 rows, and requires
both readers to return equal arrays and maps or the same problems, line for
line.  The new readers differ in two ways, each pinned by its own test:
an id blank after strip is a problem ("empty professor_id"), and a
repeated id in indicators.csv is named in every block, where the old loop
numbered rows by distinct ids and missed a repeat once blocks had shifted.
"""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import resperf.corpus
from resperf.cli import _read_frame, _read_indicators
from resperf.corpus import (CODE, COUNT, REAL, Column, IngestError, _real_number,
                            _real_numbers, read_columns)
from resperf.indicators import INDICATORS

HEADERS = {
    "covariates.csv": ["professor_id", "uda", "sds", "age", "seniority", "gender_dummy",
                       "u1", "u2", "u3", "t"],
    "percentiles.csv": ["professor_id", "indicator", "percentile"],
    "indicators.csv": ["professor_id", "sds", "fss", "p", "ia", "ij", "n_pubs",
                       "inactive_flag"],
}
# Cells an edit writes: values near each column's valid ones and past them,
# and anything, cells needing quotes among them.
REALS = ["", " ", "-1", "-0", "0", "100", "100.5", "9999.5", "10000", "1e200", "1e400",
         "-1e400", "nan", "inf", "-inf", "abc", " 2 "]
EDGES = {
    "professor_id": ["", " ", "\t", "P0", "P1", " P1", "P9"],
    "uda": ["", " ", "MAT", "a,b"],
    "indicator": [*INDICATORS, "", "H", "fss", " FSS"],
    "gender_dummy": ["0", "1", "2", "", "0.0", " 1"],
    "n_pubs": ["007", "-1", "1.5", "999999999999999999", "1000000000000000000",
               "99999999999999999999", "000000000000000000001", "١", "²", ""],
    **dict.fromkeys(["age", "seniority", "percentile", "fss", "p", "ia", "ij"], REALS),
}
EDGES["u1"] = EDGES["u2"] = EDGES["u3"] = EDGES["gender_dummy"]
CELLS = st.one_of(st.sampled_from(["x", '"', "x\ny", "a,b"]), st.floats().map(repr),
                  st.text(max_size=4))


@st.composite
def worlds(draw):
    """The text of the three files for a few professors, after edits."""
    n = draw(st.integers(0, 5))
    ids = [f"P{i}" for i in range(n)]
    number = st.floats(0, 100).map(repr)
    tables = {
        "covariates.csv": [[pid, draw(st.sampled_from(["MAT", "BIO"])), "S",
                            draw(st.floats(20, 90).map(repr)), draw(st.floats(0, 50).map(repr)),
                            *draw(st.lists(st.sampled_from("01"), min_size=4, max_size=4)),
                            "5.0"] for pid in ids],
        "percentiles.csv": draw(st.permutations(
            [[pid, name, draw(number)] for pid in ids for name in INDICATORS
             if not draw(st.booleans())])),
        "indicators.csv": [[pid, "S", draw(number), draw(number),
                            draw(st.one_of(st.just(""), number)),
                            draw(st.one_of(st.just(""), number)),
                            str(draw(st.integers(0, 40))), "0"] for pid in ids],
    }
    names = st.sampled_from(sorted(tables))
    for _ in range(draw(st.integers(0, 5))):
        name = draw(names)
        if tables[name]:
            row = draw(st.sampled_from(tables[name]))
            j, column = draw(st.sampled_from([(j, column) for j, column
                                              in enumerate(HEADERS[name]) if column in EDGES]))
            row[j] = draw(st.sampled_from(EDGES[column]) if draw(st.integers(0, 3)) else CELLS)
    blanks = {name: set() for name in tables}
    # percentiles.csv twice as often: its repeated pairs are only checked
    # once covariates.csv passes
    for name, edit, at, to in draw(st.lists(st.tuples(
            st.sampled_from(["covariates.csv", "indicators.csv", *["percentiles.csv"] * 2]),
            st.sampled_from(["copy", "cut", "drop", "blank line"]),
            st.integers(0, 99), st.integers(0, 99)), max_size=5)):
        rows = tables[name]
        if edit == "blank line":
            blanks[name].add(at % (len(rows) + 1))
        elif rows and edit == "copy":  # a repeated id or pair
            rows.insert(to % (len(rows) + 1), list(rows[at % len(rows)]))
        elif rows and edit == "cut":
            rows[at % len(rows)] = rows[at % len(rows)][:to % 9]
        elif rows:
            del rows[at % len(rows)]
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    texts = {}
    for name, rows in tables.items():
        out = io.StringIO()
        writer = csv.writer(out, quoting=quoting, lineterminator=end)
        writer.writerow(HEADERS[name])
        for k, row in enumerate(rows + [None]):
            if k in blanks[name]:
                out.write(end)
            if row is not None:
                writer.writerow(row)
        texts[name] = out.getvalue()
    return texts


def outcome(read, *paths):
    try:
        return read(*paths)
    except IngestError as exc:
        return exc


def with_id_problems(path: Path, error: IngestError | None) -> list[str]:
    """The old reader's problems of a file with an id column, less its
    repeated-id ones, with each row's own: "empty professor_id" for an id
    blank after strip, then the repeat of an earlier row's id."""
    found: dict[int, list[str]] = {}
    for problem in error.problems if error else ():
        line, _, message = problem.partition(": ")
        if not message.startswith("duplicate professor_id "):
            found.setdefault(int(line.removeprefix("line ")), []).append(message)
    seen = set()
    for line, pid in oracle.csv_rows(path, ("professor_id",)):
        own = ["empty professor_id"] * (not pid.strip())
        own += [f"duplicate professor_id {pid!r}"] * (pid in seen)
        seen.add(pid)
        if own:
            found[line] = own + found.get(line, [])
    return [f"line {line}: {message}" for line in sorted(found) for message in found[line]]


def assert_same_error(got, want_source, want_problems):
    assert isinstance(got, IngestError), got
    assert (got.source, got.problems) == (str(want_source), want_problems)


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=250)
@given(texts=worlds(), block_rows=st.sampled_from([1, 2, 3, 512]))
@example(texts={name: ",".join(header) + "\n" for name, header in HEADERS.items()},
         block_rows=512)
def test_readers_equal_the_block_loops_they_replaced(texts, block_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(resperf.corpus, "BLOCK_ROWS", block_rows):
        paths = {name: Path(tmp) / name for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8", newline="")
        cov, pct, ind = (paths[name] for name in ("covariates.csv", "percentiles.csv",
                                                  "indicators.csv"))

        want, got = outcome(oracle._read_frame, cov, pct), outcome(_read_frame, cov, pct)
        from_cov = isinstance(want, IngestError) and want.source == str(cov)
        problems = with_id_problems(cov, want if from_cov else None)
        if problems:
            assert_same_error(got, cov, problems)
        elif isinstance(want, IngestError):
            assert_same_error(got, want.source, want.problems)
        else:
            for field in ("uda", "age", "covariates", "percentiles"):
                assert_same_arrays(getattr(got, field), getattr(want, field))

        want, got = outcome(oracle._read_indicators, ind), outcome(_read_indicators, ind)
        problems = with_id_problems(ind, want if isinstance(want, IngestError) else None)
        if problems:
            assert_same_error(got, ind, problems)
        else:
            assert list(got[0].items()) == list(want[0].items())
            assert_same_arrays(got[1], want[1])
            assert_same_arrays(got[2], want[2])


def test_every_check_fails_a_row_as_before(tmp_path):
    """One row per failing check of each file, and one row failing every
    check of a file without ``stop`` columns, give the old problems."""
    files = {
        "covariates.csv": ["P0,MAT,S,40,5,1,0,0,0,5", "P1,,S,nan,-1,2,x,,0.5,5",
                           "P0, ,S,1e400,10000,,1,1,1,5", "P2,BIO,S,-0.5,abc,0,0,1,1,5"],
        "percentiles.csv": ["P0,FSS,50", "P9,FSS,50", "P1,H,50", "P1,P,nan", "P1,P,100.5",
                            "P2,IA,-1", "P2,IA,0", "P2,IA,100", "P9,H,x", ",FSS,50"],
        "indicators.csv": ["P0,S,1,2,,,3,0", "P1,S,nan,-1,inf,abc,1.5,0", "P0,S,,x,-1,,-1,0",
                           "P2,S,0,0,0,0,1000000000000000000,0", "P3,S,0,0,0,0,²,0",
                           "P4,S,0,0,0,0,,0"],
    }
    for name, rows in files.items():
        (tmp_path / name).write_text(",".join(HEADERS[name]) + "\n" + "\n".join(rows) + "\n")
    cov, pct, ind = (tmp_path / name for name in files)
    for read, paths in ((_read_frame, (cov, pct)), (_read_indicators, (ind,))):
        want = outcome(getattr(oracle, read.__name__), *paths)
        assert isinstance(want, IngestError) and len(want.problems) > 5
        assert_same_error(outcome(read, *paths), want.source, want.problems)
    # with covariates.csv passing, percentiles.csv is read
    (tmp_path / "covariates.csv").write_text(
        ",".join(HEADERS["covariates.csv"]) + "\n"
        + "".join(f"P{i},MAT,S,40,5,1,0,0,0,5\n" for i in range(3)))
    want = outcome(oracle._read_frame, cov, pct)
    assert want.source == str(pct) and len(want.problems) == 8
    assert want.problems[-1] == "line 11: unknown professor_id ''"
    assert_same_error(outcome(_read_frame, cov, pct), want.source, want.problems)


def test_a_repeated_id_is_named_after_a_block_holding_another(tmp_path):
    """A repeat in the first block once numbered the next block's rows from
    the count of distinct ids, so row 512's id, given again on row 513,
    matched the row number the repeat was checked with and passed."""
    ids = [f"R{i:05d}" for i in range(600)]
    ids[1], ids[512] = ids[0], ids[511]
    path = tmp_path / "indicators.csv"
    path.write_text(",".join(HEADERS["indicators.csv"]) + "\n"
                    + "".join(f"{pid},S,1,1,1,1,1,0\n" for pid in ids))
    with pytest.raises(IngestError) as caught:
        _read_indicators(path)
    assert caught.value.problems == ["line 3: duplicate professor_id 'R00000'",
                                     "line 514: duplicate professor_id 'R00511'"]


@pytest.mark.parametrize("blank", ["", " ", "\t"])
def test_a_blank_id_is_empty(tmp_path, blank):
    path = tmp_path / "indicators.csv"
    path.write_text(",".join(HEADERS["indicators.csv"]) + "\n"
                    + f"P1,S,1,1,,,1,0\n{blank},S,1,1,,,1,0\n{blank},S,x,1,,,1,0\n")
    with pytest.raises(IngestError) as caught:
        _read_indicators(path)
    assert caught.value.problems == [
        "line 3: empty professor_id",
        "line 4: empty professor_id", f"line 4: duplicate professor_id {blank!r}",
        "line 4: fss must be a finite number >= 0, got 'x'"]


def test_a_stop_column_leaves_its_failures_out_of_later_checks(tmp_path):
    """A row failing a ``stop`` column is named once; a row failing only
    columns without ``stop`` is named by each."""
    path = tmp_path / "t.csv"
    path.write_text("k,n,v\n" "a,x,-1\n" "b,1,y\n" "q,x,9\n")
    columns = (Column("k", CODE, "unknown k {!r}", stop=True, codes={"a": 0, "b": 1}),
               Column("n", COUNT, "bad n {!r}"),
               Column("v", REAL, "bad v {!r}", "v out of [0, 2]: {!r}", bounds=(0.0, 2.0)))
    with pytest.raises(IngestError) as caught:
        read_columns(path, columns)
    assert caught.value.problems == ["line 2: bad n 'x'", "line 2: v out of [0, 2]: '-1'",
                                     "line 3: bad v 'y'", "line 4: unknown k 'q'"]


def real_number_reference(cells):
    parsed = list(map(_real_number, cells))
    return (np.array([np.nan if v is None else v for v in parsed], dtype=np.float64),
            np.array([v is None for v in parsed], dtype=bool))


@settings(deadline=None, max_examples=300)
@given(cells=st.lists(st.one_of(
    st.sampled_from(["", " ", None, "nan", "-nan", "1e400", "-1e400", "0", "-0", "1.5",
                     " 2 ", "abc", True, False, 0, -7, 10 ** 308, 10 ** 309, -10 ** 400]),
    st.integers(), st.floats(), st.text(max_size=5)), max_size=12))
@example(cells=["", "1"])
@example(cells=("1", "", "2.5"))
@example(cells=["", None, ""])
@example(cells=["", 10 ** 400])
@example(cells=["", True])
def test_real_numbers_equal_the_per_cell_parse(cells):
    values, unread = _real_numbers(cells)
    want_values, want_unread = real_number_reference(cells)
    assert values.tobytes() == want_values.tobytes()
    assert unread.tolist() == want_unread.tolist()


def test_blank_cells_keep_a_block_on_the_whole_block_parse(monkeypatch):
    """A block with "" cells and no others the whole-block float() rejects
    never parses a cell alone."""
    calls = []
    monkeypatch.setattr(resperf.corpus, "_real_number",
                        lambda raw: calls.append(raw) or _real_number(raw))
    values, unread = _real_numbers(["", "1", "", "2.5", ""])
    assert calls == []
    assert unread.tolist() == [True, False, True, False, True]
    assert values[~unread].tolist() == [1.0, 2.5]
