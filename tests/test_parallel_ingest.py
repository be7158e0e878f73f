"""Publication ingest in parts against a one-part read and the row-loop oracle.

``ingest_publications`` cuts a corpus file into one part per available core,
none smaller than ``PART_BYTES``, reads every part but the first in a forked
process and merges the results.  Here the part size is cut to one byte and
the core count is patched, so files of a few rows split into 2 or 3 parts.
Each file is then read in parts, in one part and by ``oracle``; all three
must return the same columns or raise the same problem list.
"""

import csv
import errno
import os
import signal
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import resperf.corpus as corpus
from resperf.cli import main
from resperf.corpus import IngestError
from helpers import tiny_publications, write_pubs
from test_block_ingest import (PUBLICATION_EDGES, PUBLICATION_HEADER, ROSTER_ROWS, outcome,
                               publication_rows, write_publications)


def split(cores: int, block_rows: int = 3):
    """Patches under which a file of at least ``cores`` bytes splits into up
    to ``cores`` parts, read in blocks of ``block_rows`` rows."""
    return [mock.patch.object(corpus, "PART_BYTES", 1),
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))),
            mock.patch.object(corpus, "BLOCK_ROWS", block_rows)]


def read(path, cores: int, block_rows: int = 3, **kwargs):
    """What ingest returns or raises, reading bylines against ROSTER_ROWS,
    when ``path`` is cut into up to ``cores`` parts, and the parts it was
    cut into."""
    patches = split(cores, block_rows)
    for patch in patches:
        patch.start()
    try:
        parts = corpus._parts(path, path.suffix == ".jsonl")
        return outcome(corpus.ingest_publications, path, ROSTER_ROWS, **kwargs), parts
    finally:
        for patch in patches:
            patch.stop()


def three_ways(path, cores: int = 2, block_rows: int = 3, **kwargs):
    """The outcomes of a read in parts, a one-part read and the oracle, and
    the number of parts."""
    in_parts, parts = read(path, cores, block_rows, **kwargs)
    whole, one = read(path, 1, block_rows, **kwargs)
    assert one == [corpus.WHOLE_FILE]
    return (in_parts, whole, outcome(oracle.ingest_publications, path, ROSTER_ROWS, **kwargs),
            len(parts))


def with_endings(path, ending: bytes) -> None:
    data = path.read_bytes().replace(b"\r\n", b"\n")
    path.write_bytes(data.replace(b"\n", ending))


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 9), cores=st.sampled_from([2, 3]), block_rows=st.sampled_from([2, 3]),
       as_json=st.booleans(),
       changes=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6), st.data()),
                        max_size=3),
       coauthors=st.lists(st.tuples(st.integers(0, 8), st.lists(
           st.sampled_from(["X1", "X2", "X3", "P1", "P4"]), min_size=1, max_size=3)),
           max_size=3),
       extra=st.sampled_from([None, "\n", "[1]\n", '{"id": "W9"\n']),
       ending=st.sampled_from([b"\n", b"\r\n", b"\r"]), strict=st.booleans())
def test_parts_match_one_part_and_the_row_loop(tmp_path_factory, n, cores, block_rows,
                                               as_json, changes, coauthors, extra, ending,
                                               strict):
    """Valid rows, with co-authors added, some of them on the roster, some
    repeated on a byline, and up to three cells set to edge values, any line
    ending, cut into 2 or 3 parts."""
    rows = publication_rows(n)
    for row, names in coauthors:
        rows[row % n][6] += [f"{name}@U{k}" for k, name in enumerate(names)]
    for row, column, data in changes:
        rows[row % n][column] = data.draw(st.sampled_from(PUBLICATION_EDGES[column]))
    path = tmp_path_factory.mktemp("pubs") / ("pubs.jsonl" if as_json else "pubs.csv")
    write_publications(path, rows, as_json, extra)
    with_endings(path, ending)
    in_parts, whole, reference, _ = three_ways(path, cores, block_rows, strict=strict)
    assert in_parts == whole == reference


def test_small_files_do_split(tmp_path):
    for suffix in ("csv", "jsonl"):
        path = tmp_path / f"pubs.{suffix}"
        write_publications(path, publication_rows(9), suffix == "jsonl")
        for cores in (2, 3):
            in_parts, whole, reference, parts = three_ways(path, cores)
            assert parts == cores
            assert in_parts == whole == reference
            assert in_parts[0] == "columns"


def test_parts_start_at_line_starts(tmp_path):
    """Every cut target gives the next line start, for "\\n", "\\r\\n", lone
    "\\r", blank lines and a byte-order mark, and the lines before it."""
    data = "\ufeffa\r\nbb\n\n\rccc\r\r\n\r\ndd\re\n".encode("utf-8")
    path = tmp_path / "lines.bin"
    path.write_bytes(data)
    lines = data.splitlines(keepends=True)  # bytes split at \n, \r\n and \r only
    starts = [sum(map(len, lines[:k])) for k in range(len(lines))]
    with path.open("rb") as fh:
        for target in range(1, len(data) + 1):
            cut = corpus._line_start(fh, target)
            assert cut == min([s for s in starts if s >= target], default=len(data))
            fh.seek(0)
            assert corpus._count_lines(fh, cut)[0] == sum(s < cut for s in starts)


def test_a_duplicate_id_across_parts(tmp_path):
    rows = publication_rows(9)
    rows[7][0] = rows[1][0]
    for suffix in ("csv", "jsonl"):
        path = tmp_path / f"pubs.{suffix}"
        write_publications(path, rows, suffix == "jsonl")
        in_parts, whole, reference, parts = three_ways(path, 3)
        assert parts == 3
        assert in_parts == whole == reference
        first = 3 if suffix == "csv" else 2
        assert in_parts[2] == [f"line {first + 6}: duplicate publication id 'W1' "
                               f"(first seen on line {first})"]


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_later_parts_name_what_the_first_does_not(tmp_path, suffix):
    """Parts 2 and 3 both name a category and a university that part 1
    does not, part 3 after part 2 met them and before a name of its own:
    the read in parts codes every name as a one-part read does."""
    plan = [("SCA", "U1"), ("SCA", "U1"), ("SCA", "U1"), ("SCB", "U2"), ("SCA", "U1"),
            ("SCB", "U2"), ("SCC", "U3"), ("SCB", "U2"), ("SCA", "U1")]
    rows = publication_rows(9)
    for row, (category, university) in zip(rows, plan):
        row[2], row[6] = category, [f"P1@{university}"]
    path = tmp_path / f"pubs.{suffix}"
    write_publications(path, rows, suffix == "jsonl")
    in_parts, parts = read(path, 3)
    # part 1 holds rows 0-1 of the CSV file, after its header, and rows 0-2 of the JSON lines
    assert [before for _, before, _ in parts] == ([0, 3, 7] if suffix == "csv" else [0, 3, 6])
    whole, _ = read(path, 1)
    assert in_parts == whole == outcome(oracle.ingest_publications, path, ROSTER_ROWS)
    columns = in_parts[1]
    assert columns["categories"] == ["SCA", "SCB", "SCC"]
    assert columns["universities"] == ["U1", "U2", "U3"]
    assert columns["category"] == columns["university"] == [0, 0, 0, 1, 0, 1, 2, 1, 0]


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
@pytest.mark.parametrize("row", [1, 7])
def test_an_author_twice_on_a_byline_in_either_part(tmp_path, suffix, row):
    """A repeated author off the roster and one on it, in the first part or
    in a forked later one."""
    first = row + (suffix == "csv") + 1
    for byline, twice in ((["X1@U1", "P1@U2", "X1@U3"], "X1"),
                          (["P2@U1", "X1@U2", "P2@U2"], "P2")):
        rows = publication_rows(9)
        rows[row][6] = byline
        rows[row + 1][6] = ["X2@U1", "X2@U2"]
        path = tmp_path / f"pubs.{suffix}"
        write_publications(path, rows, suffix == "jsonl")
        in_parts, whole, reference, parts = three_ways(path, 3)
        assert parts == 3
        assert in_parts == whole == reference == ("problems", str(path), [
            f"line {first}: author {twice!r} appears twice on the byline",
            f"line {first + 1}: author 'X2' appears twice on the byline"])


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_strict_names_unknown_authors_in_every_part(tmp_path, suffix):
    rows = publication_rows(9)
    for i, row in enumerate(rows):
        row[6] = [f"P{i % 4}@U1"]
    rows[1][6] = ["X1@U1", "P1@U2"]
    rows[4][6] = ["P3@U1", "P4@U2"]  # P4 is not on the roster
    rows[7][6] = ["X2@U1", "P1@U1", "X3@U2"]
    path = tmp_path / f"pubs.{suffix}"
    write_publications(path, rows, suffix == "jsonl")
    first = 3 if suffix == "csv" else 2
    for cores in (1, 3):
        assert read(path, cores, strict=True)[0] == ("problems", str(path), [
            f"line {first}: unknown author id(s) X1",
            f"line {first + 3}: unknown author id(s) P4",
            f"line {first + 6}: unknown author id(s) X2, X3"])
    # a lenient read keeps every row, coding P4 and X1..X3 -1
    lenient, parts = read(path, 3)
    assert len(parts) == 3
    assert lenient[1]["author"] == [0, -1, 1, 2, 3, 3, -1, 1, 2, -1, 1, -1, 0]


def test_a_csv_error_in_a_later_part_wins_over_row_problems(tmp_path):
    rows = publication_rows(9)
    rows[1][1] = "1800"  # a row problem in the first part
    rows[7][2] = "S" * 200  # over the field limit below, in the last part
    path = tmp_path / "pubs.csv"
    write_publications(path, rows, False)
    limit = csv.field_size_limit(100)
    try:
        in_parts, parts = read(path, 2)
        whole, _ = read(path, 1)
    finally:
        csv.field_size_limit(limit)
    assert len(parts) == 2 and parts[1][1] < 9
    assert in_parts == whole == ("problems", str(path),
                                 ["line 9: field larger than field limit (100)"])


def test_a_line_nested_too_deeply_is_a_row_problem_in_any_part(tmp_path):
    """The deep last line is shorter than the rows before it together, so a
    two-part read cuts before it."""
    path = tmp_path / "pubs.jsonl"
    write_publications(path, publication_rows(2500), True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"id": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
    in_parts, whole, reference, parts = three_ways(path, block_rows=512)
    assert parts == 2
    assert in_parts == whole == reference == (
        "problems", str(path), ["line 2501: invalid JSON (nested too deeply)"])


def test_a_quote_before_the_last_cut_reads_one_part(tmp_path):
    rows = publication_rows(9)
    rows[1][5] = "article, revised"  # written quoted
    path = tmp_path / "pubs.csv"
    write_publications(path, rows, False)
    in_parts, whole, reference, parts = three_ways(path, 3)
    assert parts == 1
    assert in_parts == whole == reference
    rows = publication_rows(9)
    rows[8][5] = "article, revised"  # after the last cut
    write_publications(path, rows, False)
    in_parts, whole, reference, parts = three_ways(path, 3)
    assert parts == 3
    assert in_parts == whole == reference


def test_a_quoted_line_break_never_spans_a_cut(tmp_path):
    rows = publication_rows(9)
    for i in (2, 5, 8):
        rows[i][5] = "article\nwith a break"
    path = tmp_path / "pubs.csv"
    write_publications(path, rows, False)
    in_parts, whole, reference, parts = three_ways(path, 3)
    assert in_parts == whole == reference
    assert in_parts[0] == "columns"


@pytest.mark.parametrize("ending", [b"\r\n", b"\r", b"\n"])
@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_blank_lines_and_endings_at_every_cut(tmp_path, suffix, ending):
    """Blank lines between rows, and a row problem, with the cut moved across
    them by padding the first row."""
    for pad in range(12):
        rows = publication_rows(6)
        rows[0][2] = "SC" + "0" * pad
        rows[4][1] = "1800"
        path = tmp_path / f"pubs{pad}.{suffix}"
        write_publications(path, rows, suffix == "jsonl")
        data = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\n\n")
        path.write_bytes(data.replace(b"\n", ending))
        in_parts, whole, reference, parts = three_ways(path, 2)
        assert parts == 2
        assert in_parts == whole == reference
        assert in_parts[0] == "problems"


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_a_byte_order_mark(tmp_path, suffix):
    """A mark starting the file is skipped; one starting a later part's first
    line is a character of that line, as in a one-part read."""
    path = tmp_path / f"pubs.{suffix}"
    write_publications(path, publication_rows(8), suffix == "jsonl")
    text = path.read_text(encoding="utf-8")
    path.write_text("\ufeff" + text, encoding="utf-8")
    in_parts, whole, reference, parts = three_ways(path, 2)
    assert parts == 2
    assert in_parts == whole == reference
    assert in_parts[0] == "columns"
    path.write_text("\ufeff" + text.replace("\nW", "\n\ufeffW").replace('\n{', '\n\ufeff{'),
                    encoding="utf-8")
    in_parts, whole, reference, parts = three_ways(path, 2)
    assert parts == 2
    assert in_parts == whole == reference
    if suffix == "csv":
        assert in_parts[1]["ids"][1:] == [f"\ufeffW{i}" for i in range(1, 8)]
    else:  # JSON does not allow it
        assert in_parts[0] == "problems"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """Every forked reader is reaped, whatever its part does."""

    @pytest.fixture
    def pubs(self, tmp_path):
        path = tmp_path / "pubs.csv"
        write_publications(path, publication_rows(9), False)
        return path

    def test_after_success_and_after_row_problems(self, tmp_path, pubs):
        assert read(pubs, 2)[0][0] == "columns"
        assert_no_child_left()
        rows = publication_rows(9)
        rows[1][1] = rows[7][1] = "1800"
        write_publications(pubs, rows, False)
        assert read(pubs, 2)[0] == ("problems", str(pubs), [
            "line 3: year 1800 out of range", "line 9: year 1800 out of range"])
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_after_a_raise_in_either_part(self, pubs, failing):
        part_of = corpus._publication_part

        def failing_part(*args):
            if (args[-1][0] > 0) == failing:
                raise KeyError(f"part {failing}")
            return part_of(*args)

        with mock.patch.object(corpus, "_publication_part", failing_part):
            with pytest.raises(KeyError, match=f"part {failing}"):
                read(pubs, 2)
        assert_no_child_left()

    def test_the_first_raising_part_wins(self, pubs):
        def failing_part(*args):
            raise IngestError("pubs", [f"part from line {args[-1][1] + 1}"])

        with mock.patch.object(corpus, "_publication_part", failing_part):
            assert read(pubs, 3)[0] == ("problems", "pubs", ["part from line 1"])
        assert_no_child_left()

    def test_a_later_part_raises_when_the_first_does_not(self, pubs):
        part_of = corpus._publication_part

        def failing_part(*args):
            if args[-1][0]:
                raise IngestError("pubs", [f"part from line {args[-1][1] + 1}"])
            return part_of(*args)

        with mock.patch.object(corpus, "_publication_part", failing_part):
            result, parts = read(pubs, 3)
        assert result == ("problems", "pubs", [f"part from line {parts[1][1] + 1}"])
        assert_no_child_left()

    def test_after_a_child_is_killed(self, pubs):
        part_of = corpus._publication_part

        def killed_part(*args):
            if args[-1][0] > 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return part_of(*args)

        with mock.patch.object(corpus, "_publication_part", killed_part):
            with pytest.raises(RuntimeError, match=r"ended without a result \(exit status -9\)"):
                read(pubs, 2)
        assert_no_child_left()

    def test_a_later_part_raises_with_its_traceback_as_cause(self, pubs):
        part_of = corpus._publication_part

        class Unpicklable(Exception):  # a local class does not pickle
            pass

        for error, raised in ((KeyError("later part"), KeyError),
                              (Unpicklable("later part"), RuntimeError)):
            def failing_part(*args):
                if args[-1][0]:
                    raise error
                return part_of(*args)

            with mock.patch.object(corpus, "_publication_part", failing_part):
                with pytest.raises(raised, match="later part") as exc:
                    read(pubs, 2)
            trace = str(exc.value.__cause__)
            assert trace.startswith("raised in the worker for part (")
            assert "in failing_part" in trace
            assert trace.rstrip().endswith(f"{type(error).__name__}: {error}")
            assert_no_child_left()

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    @pytest.mark.parametrize("forked", [0, 1])
    def test_parts_not_forked_are_read_here(self, pubs, call, forked):
        """An OSError from a pipe or a fork, after ``forked`` children,
        leaves the remaining parts to the calling process."""
        made = getattr(os, call)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) > forked:
                raise OSError(errno.EAGAIN, "no process to spare")
            return made(*args)

        open_fds = len(os.listdir("/proc/self/fd"))
        with mock.patch.object(os, call, failing):
            in_parts, whole, reference, parts = three_ways(pubs, 3)
        assert parts == 3 and len(calls) == forked + 1
        assert in_parts == whole == reference
        assert in_parts[0] == "columns"
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()

    def test_parts_are_read_here_where_fork_does_not_exist(self, pubs, monkeypatch):
        """A missing ``os.fork`` leaves every part to the calling process,
        as an OSError from it does."""
        monkeypatch.delattr(os, "fork")
        open_fds = len(os.listdir("/proc/self/fd"))
        in_parts, whole, reference, parts = three_ways(pubs, 3)
        assert parts == 3 and in_parts == whole == reference
        assert in_parts[0] == "columns"
        assert len(os.listdir("/proc/self/fd")) == open_fds


def test_parts_are_logged_at_debug_level(tmp_path, caplog):
    path = tmp_path / "pubs.jsonl"
    write_publications(path, publication_rows(9), True)
    with caplog.at_level("DEBUG", logger="resperf.corpus"):
        read(path, 3)
    assert f"{path}: read in 3 part(s), from lines 1, 4, 7" in caplog.messages
    # publication_rows(9) has 9 bylines of 1-3 authors each, 18 slots, P4's 3 not rostered
    assert (f"{path}: 9 row(s) read, 0 dropped by doc type, 9 kept, in 3 part(s); "
            f"18 byline slot(s), 15 naming a rostered professor") in caplog.messages


class TestInvalidUtf8:
    """A byte that is not UTF-8 fails the read naming the file and the line
    holding it, whichever part or reader stops at it."""

    @pytest.mark.parametrize("suffix", ["csv", "jsonl"])
    @pytest.mark.parametrize("row", [1, 8])
    def test_corpus(self, tmp_path, suffix, row):
        rows = publication_rows(9)
        rows[3][1] = "1800"  # a row problem, which the bad byte outranks
        path = tmp_path / f"pubs.{suffix}"
        write_publications(path, rows, suffix == "jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        at = row + (suffix == "csv")
        lines[at] = lines[at].replace(b"SC", b"S\xff", 1)
        path.write_bytes(b"".join(lines))
        line = at + 1
        for cores in (1, 2, 3):
            assert read(path, cores)[0] == ("problems", str(path), [
                f"line {line}: invalid UTF-8 (byte 0xff, invalid start byte)"])
        assert_no_child_left()

    @pytest.fixture
    def tiny_files(self, tmp_path, tiny_world):
        corpus.write_roster(tmp_path / "roster.csv", tiny_world[0])
        write_pubs(tmp_path / "pubs.csv", tiny_publications(), tiny_world[0].ids)
        return tmp_path

    def test_corpus_through_compute(self, tmp_path, tiny_files):
        pubs = tmp_path / "bad.csv"
        data = (tiny_files / "pubs.csv").read_bytes().splitlines(keepends=True)
        data[2] = data[2][:3] + b"\xc3(" + data[2][3:]
        pubs.write_bytes(b"".join(data))
        res = CliRunner().invoke(main, ["compute", "--roster", str(tiny_files / "roster.csv"),
                                        "--pubs", str(pubs), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert (f"publication ingest: {pubs}: line 3: invalid UTF-8 "
                f"(byte 0xc3, invalid continuation byte)") in " ".join(res.output.split())

    def test_roster(self, tmp_path, tiny_files):
        roster = tmp_path / "bad.csv"
        lines = (tiny_files / "roster.csv").read_bytes().splitlines(keepends=True)
        lines[-1] = b"\xfe" + lines[-1]
        roster.write_bytes(b"".join(lines))
        with pytest.raises(IngestError) as exc:
            corpus.ingest_roster(roster)
        assert exc.value.problems == [
            f"line {len(lines)}: invalid UTF-8 (byte 0xfe, invalid start byte)"]
        assert str(exc.value).startswith(f"{roster}: ")

    def test_conventions_file(self, tmp_path):
        from resperf.credit import load_convention_map
        path = tmp_path / "conventions.csv"
        path.write_bytes(b"sds,convention\r\nMAT/01,alphabetical\r\nBIO/01,alpha\x80betical\r\n")
        with pytest.raises(IngestError) as exc:
            load_convention_map(path)
        assert exc.value.problems == ["line 3: invalid UTF-8 (byte 0x80, invalid start byte)"]

    def test_json_object_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{\n  "a": 1,\n  "b": "\xe9"\n}\n')
        with pytest.raises(IngestError) as exc:
            corpus.read_json_object(path)
        assert exc.value.problems == [
            "line 3: invalid UTF-8 (byte 0xe9, invalid continuation byte)"]


def test_read_pairs_names_the_physical_line(tmp_path):
    """A quoted line break in an earlier row does not shift later lines."""
    from resperf.credit import load_convention_map
    path = tmp_path / "conventions.csv"
    path.write_text('sds,convention\n"MED\n01",alphabetical\nBIO/01,bogus\n', encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        load_convention_map(path)
    assert exc.value.problems == ["line 4: unknown convention 'bogus'"]


def test_ingest_error_survives_pickling():
    import pickle
    error = pickle.loads(pickle.dumps(IngestError("pubs.csv", ["line 2: a", "line 3: b"])))
    assert (error.source, error.problems, str(error)) == (
        "pubs.csv", ["line 2: a", "line 3: b"], "pubs.csv: line 2: a; line 3: b")


def test_every_part_reads_by_the_header(tmp_path):
    """Columns in another order, and one more, in every part."""
    path = tmp_path / "pubs.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["byline", *PUBLICATION_HEADER[:-1], "note"])
        for row in publication_rows(9):
            cells = ["" if c is None else ";".join(c) if isinstance(c, list) else str(c)
                     for c in row]
            writer.writerow([cells[-1], *cells[:-1], "x"])
    in_parts, whole, reference, parts = three_ways(path, 3)
    assert parts == 3
    assert in_parts == whole == reference
    assert in_parts[0] == "columns"
    assert in_parts[1]["ids"] == [f"W{i}" for i in range(9)]
