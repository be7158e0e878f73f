"""Ingestion validation and census-date covariate arithmetic."""

import csv
import io
import json
import logging
import math
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

import oracle
from helpers import (make_professor, make_publication, make_roster, professors, records,
                     unrostered, write_pubs)
import resperf.corpus
from resperf.corpus import (DAYS_PER_YEAR, Corpus, IngestError, NameSequence, _blank_nan,
                            csv_text, derive_covariates, exact_years, ingest_publications,
                            ingest_roster, read_blocks, read_pairs, whole_years,
                            working_years, write_csv, write_publications, write_roster)

ROSTER_HEADER = "id,gender,birth_date,appointment_date,sds,uda,university_type"
PUBS_HEADER = "id,year,subject_category,journal_if,citations,doc_type,byline"
# The roster rows the publication tests read bylines against; X1.. are not rostered.
ROWS = {"P1": 0, "P2": 1}
IDS = list(ROWS)


def write_lines(path, header, *rows):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


class TestRosterIngest:
    def test_happy_path(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "P2,f,1955-02-10,1990-10-01,BIO/05,BIO,Private")
        roster = ingest_roster(path)
        assert roster.ids == ["P1", "P2"]
        assert roster.male.tolist() == [True, False]
        assert [p.university_type for p in professors(roster)] == ["public", "private"]
        assert roster.birth[0] == date(1950, 6, 30).toordinal()
        assert roster.active_start.tolist() == [0, 0]
        assert roster.lines.tolist() == [2, 3]
        first = professors(roster)[0]
        assert first == make_professor("P1", birth=date(1950, 6, 30),
                                       appointed=date(1985, 3, 1))

    def test_round_trip(self, tmp_path):
        profs = [make_professor("P1"),
                 make_professor("P2", gender="female", sds="BIO/05", uda="BIO",
                                university_type="advanced_school",
                                span=(date(2007, 3, 1), date(2010, 12, 31)))]
        path = tmp_path / "roster.csv"
        write_roster(path, make_roster(profs))
        assert professors(ingest_roster(path)) == profs

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "P1,F,1960-01-01,1995-01-01,MAT/01,MAT,public")
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert "line 3" in str(info.value) and "line 2" in str(info.value)

    def test_an_id_no_byline_can_name_is_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "A@B,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            '"C;D",M,1950-06-30,1985-03-01,MAT/01,MAT,public')
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert info.value.problems == [
            "line 3: id 'A@B' holds ';' or '@', so no byline can name it",
            "line 4: id 'C;D' holds ';' or '@', so no byline can name it"]

    def test_appointment_before_age_twenty_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1970-06-30,1985-03-01,MAT/01,MAT,public")
        with pytest.raises(IngestError, match="before age 20"):
            ingest_roster(path)

    def test_twentieth_birthday_appointment_allowed(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1970-06-30,1990-06-30,MAT/01,MAT,public")
        assert len(ingest_roster(path)) == 1

    def test_all_problems_reported(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-13-40,1985-03-01,MAT/01,MAT,public",
            "P2,x,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "P3,F,1950-06-30,1985-03-01,MAT/01,MAT,gymnasium",
            ",M,1950-06-30,1985-03-01,MAT/01,MAT,public")
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert len(info.value.problems) == 4

    def test_long_problem_lists_are_shown_in_full(self, tmp_path):
        rows = [f"P{i},x,1950-06-30,1985-03-01,MAT/01,MAT,public" for i in range(12)]
        path = write_lines(tmp_path / "roster.csv", ROSTER_HEADER, *rows)
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert len(info.value.problems) == 12
        assert all(f"line {n}: gender must be M or F" in str(info.value)
                   for n in range(2, 14))
        assert "more" not in str(info.value)

    def test_missing_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "roster.csv",
                           "id,gender,birth_date,appointment_date,sds,uda",
                           "P1,M,1950-06-30,1985-03-01,MAT/01,MAT")
        with pytest.raises(IngestError, match="university_type"):
            ingest_roster(path)

    def test_sds_map_validation(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "P2,M,1950-06-30,1985-03-01,MAT/99,MAT,public",
            "P3,M,1950-06-30,1985-03-01,BIO/05,MAT,public")
        sds_map = {"MAT/01": "MAT", "BIO/05": "BIO"}
        with pytest.raises(IngestError) as info:
            ingest_roster(path, sds_map)
        assert any("unknown SDS" in p for p in info.value.problems)
        assert any("maps to uda" in p for p in info.value.problems)

    def test_inconsistent_sds_uda_within_file(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER,
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public",
            "P2,M,1950-06-30,1985-03-01,MAT/01,BIO,public")
        with pytest.raises(IngestError, match="listed under uda"):
            ingest_roster(path)

    def test_one_sided_active_span_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER + ",active_start,active_end",
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public,2008-01-01,")
        with pytest.raises(IngestError, match="together"):
            ingest_roster(path)

    def test_lone_span_column_reads_as_one_sided_span(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER + ",active_start",
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public,",
            "P2,M,1950-06-30,1985-03-01,MAT/01,MAT,public,2008-01-01")
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert info.value.problems == [
            "line 3: active_start/active_end must be given together"]

    def test_short_rows_read_as_empty_cells(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER + ",active_start,active_end",
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT",
            "P2,M,1950-06-30,1985-03-01,MAT/01,MAT,public")
        with pytest.raises(IngestError) as info:
            ingest_roster(path)
        assert info.value.problems == ["line 2: unknown university_type ''"]

    def test_reversed_active_span_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER + ",active_start,active_end",
            "P1,M,1950-06-30,1985-03-01,MAT/01,MAT,public,2010-01-01,2008-01-01")
        with pytest.raises(IngestError, match="active_start after active_end"):
            ingest_roster(path)

    def test_empty_roster_warns(self, tmp_path, caplog):
        path = write_lines(tmp_path / "roster.csv", ROSTER_HEADER)
        with caplog.at_level(logging.WARNING):
            assert professors(ingest_roster(path)) == []
        assert "empty roster" in caplog.text


class TestPublicationIngest:
    def test_csv_happy_path(self, tmp_path):
        path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1;X1@U2",
            "W2,2009,MAT/01,,0,article,P1@U1")
        corpus = ingest_publications(path, ROWS)
        assert len(corpus) == 2
        assert corpus.author.tolist() == [0, -1, 0]
        assert records(corpus, IDS)[0].byline == (("P1", "U1"), (None, "U2"))
        assert records(corpus, IDS)[1].journal_if is None
        assert corpus.dropped == 0

    def test_jsonl_matches_csv(self, tmp_path):
        csv_path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1;X1@U2",
            "W2,2009,BIO/05,2.25,0,review,P2@U3")
        jsonl_path = tmp_path / "pubs.jsonl"
        jsonl_path.write_text(
            '{"id": "W1", "year": 2008, "subject_category": "MAT/01", '
            '"journal_if": 1.5, "citations": 4, "doc_type": "article", '
            '"byline": ["P1@U1", "X1@U2"]}\n'
            '{"id": "W2", "year": 2009, "subject_category": "BIO/05", '
            '"journal_if": 2.25, "citations": 0, "doc_type": "review", '
            '"byline": "P2@U3"}\n')
        assert (records(ingest_publications(jsonl_path, ROWS), IDS)
                == records(ingest_publications(csv_path, ROWS), IDS))

    def test_excluded_doc_types_counted(self, tmp_path):
        path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1",
            "W2,2008,MAT/01,1.5,4,Editorial Material,P1@U1",
            "W3,2008,MAT/01,1.5,4,reply,nonsense-byline")
        corpus = ingest_publications(path, ROWS)
        # dropped rows are never validated, so the bad byline on W3 is moot
        assert len(corpus) == 1 and corpus.dropped == 2

    def test_custom_exclusion_list(self, tmp_path):
        path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1",
            "W2,2008,MAT/01,1.5,4,review,P1@U1")
        corpus = ingest_publications(path, ROWS, excluded_doc_types=("review",))
        assert len(corpus) == 1 and corpus.dropped == 1

    @pytest.mark.parametrize("row,needle", [
        ("W1,20x8,MAT/01,1.5,4,article,P1@U1", "unparseable year"),
        ("W1,2008,MAT/01,-1.5,4,article,P1@U1", "negative journal_if"),
        ("W1,2008,MAT/01,1.5,-4,article,P1@U1", "negative citations"),
        ("W1,2008,MAT/01,1.5,4,article,", "empty byline"),
        ("W1,2008,MAT/01,1.5,4,article,P1-U1", "malformed byline token"),
        ("W1,2008,,1.5,4,article,P1@U1", "empty subject_category"),
        (",2008,MAT/01,1.5,4,article,P1@U1", "empty publication id"),
        ("W1,2008,MAT/01,nan,4,article,P1@U1", "line 2: non-finite journal_if 'nan'"),
        ("W1,2008,MAT/01,inf,4,article,P1@U1", "line 2: non-finite journal_if 'inf'"),
        ("W1,2008,MAT/01,-Infinity,4,article,P1@U1", "line 2: non-finite journal_if"),
        ("W1,2008,MAT/01,1.5,4,article,P1@U1;X1@U2;P1@U1",
         "line 2: author 'P1' appears twice on the byline"),
    ])
    def test_bad_rows_rejected(self, tmp_path, row, needle):
        path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER, row)
        with pytest.raises(IngestError, match=needle):
            ingest_publications(path, ROWS)

    GOOD_JSON = ('{"id": "W1", "year": 2008, "subject_category": "MAT/01", '
                 '"journal_if": 1.5, "citations": 4, "doc_type": "article", '
                 '"byline": ["P1@U1", "X1@U2"]}')

    @pytest.mark.parametrize("old,new,needle", [
        ('"journal_if": 1.5', '"journal_if": NaN', "non-finite journal_if nan"),
        ('"journal_if": 1.5', '"journal_if": Infinity', "non-finite journal_if inf"),
        ('"journal_if": 1.5', '"journal_if": -Infinity', "non-finite journal_if -inf"),
        ('"journal_if": 1.5', '"journal_if": true', "unparseable journal_if True"),
        ('"journal_if": 1.5', '"journal_if": 1' + "0" * 400,
         "unparseable journal_if 1" + "0" * 400),
        ('"citations": 4', '"citations": 3.7', "unparseable citations 3.7"),
        ('"citations": 4', '"citations": true', "unparseable citations True"),
        ('"citations": 4', '"citations": 100000000000000000000',
         "citations 100000000000000000000 out of range"),
        ('"year": 2008', '"year": 2008.5', "unparseable year 2008.5"),
        ('["P1@U1", "X1@U2"]', '["P1@U1", "P1@U2"]',
         "author 'P1' appears twice on the byline"),
        ('["P1@U1", "X1@U2"]', '5', "byline must be a string or a list, got 5"),
    ])
    def test_bad_json_values_rejected(self, tmp_path, old, new, needle):
        path = tmp_path / "pubs.jsonl"
        path.write_text(self.GOOD_JSON + "\n" + self.GOOD_JSON.replace(old, new)
                        .replace('"W1"', '"W2"') + "\n")
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        assert err.value.problems == [f"line 2: {needle}"]

    @pytest.mark.parametrize("line,kind", [("[1, 2]", "list"), ('"W1"', "str"),
                                           ("7", "int"), ("null", "NoneType")])
    def test_non_object_json_line_reported(self, tmp_path, line, kind):
        path = tmp_path / "pubs.jsonl"
        path.write_text(self.GOOD_JSON + "\n" + line + "\n")
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        assert err.value.problems == [f"line 2: expected a JSON object, got {kind}"]

    def test_whole_float_citations_accepted(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text(self.GOOD_JSON.replace('"citations": 4', '"citations": 4.0') + "\n")
        assert records(ingest_publications(path, ROWS), IDS)[0].citations == 4

    def test_problems_listed_in_line_order(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text(self.GOOD_JSON.replace('"year": 2008', '"year": 1800') + "\n"
                        + '{"id": "W2"\n')
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        assert err.value.problems == ["line 1: year 1800 out of range",
                                      "line 2: invalid JSON (Expecting ',' delimiter)"]

    def test_duplicate_publication_id(self, tmp_path):
        path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1",
            "W1,2009,MAT/01,1.5,4,article,P1@U1")
        with pytest.raises(IngestError, match="duplicate publication id"):
            ingest_publications(path, ROWS)

    def test_strict_rejects_unknown_authors(self, tmp_path):
        path = write_lines(
            tmp_path / "pubs.csv", PUBS_HEADER,
            "W1,2008,MAT/01,1.5,4,article,P1@U1;X9@U2")
        with pytest.raises(IngestError, match="unknown author"):
            ingest_publications(path, ROWS, strict=True)
        # lenient mode keeps the row
        assert len(ingest_publications(path, ROWS)) == 1

    @pytest.mark.parametrize("byline,twice", [("X1@U1;P1@U2;X1@U3", "X1"),
                                              ("P2@U1;X1@U2;P2@U1", "P2")])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_an_author_twice_on_a_byline(self, tmp_path, byline, twice, as_json):
        rows = [("W1", "P1@U1;X1@U2;X2@U2"), ("W2", byline), ("W3", "X3@U1;X3@U2")]
        if as_json:
            path = tmp_path / "pubs.jsonl"
            path.write_text("".join(json.dumps(
                {"id": pid, "year": 2008, "subject_category": "MAT/01", "citations": 4,
                 "doc_type": "article", "byline": text.split(";")}) + "\n"
                for pid, text in rows))
        else:
            path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER, *(
                f"{pid},2008,MAT/01,1.5,4,article,{text}" for pid, text in rows))
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        line = 2 if as_json else 3  # W2's
        assert err.value.problems == [
            f"line {line}: author {twice!r} appears twice on the byline",
            f"line {line + 1}: author 'X3' appears twice on the byline"]

    def test_a_name_hash_collision_rejects_no_byline(self, tmp_path):
        path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER,
                           "W1,2008,MAT/01,1.5,4,article,X1@U1;P1@U1;X2@U2;X3@U2")
        # every name hashes alike
        with mock.patch("resperf.corpus.hash", lambda name: 0, create=True):
            corpus = ingest_publications(path, ROWS)
        assert corpus.author.tolist() == [-1, 0, -1, -1]

    def test_empty_file_warns(self, tmp_path, caplog):
        path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER)
        with caplog.at_level(logging.WARNING):
            corpus = ingest_publications(path, ROWS)
        assert len(corpus) == 0
        assert "empty publication file" in caplog.text

    def test_round_trip(self, tmp_path):
        pubs = [make_publication("W1", byline=(("P1", "U1"), ("X1", "U2"))),
                make_publication("W2", journal_if=None, citations=0)]
        path = tmp_path / "pubs.csv"
        write_pubs(path, pubs, IDS)
        assert records(ingest_publications(path, ROWS), IDS) == unrostered(pubs, IDS)

    def test_missing_column_named_on_line_one(self, tmp_path):
        path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER.replace(",citations", ""),
                           "W1,2008,MAT/01,1.5,article,P1@U1")
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        assert err.value.problems == ["line 1: missing column(s) citations"]

    def test_short_row_reads_as_empty_cells(self, tmp_path):
        path = write_lines(tmp_path / "pubs.csv", PUBS_HEADER, "W1,2008,MAT/01,1.5")
        with pytest.raises(IngestError) as err:
            ingest_publications(path, ROWS)
        assert err.value.problems == ["line 2: unparseable citations ''"]

    def test_invalid_json_line_reported(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_text('{"id": "W1"\n')
        with pytest.raises(IngestError, match="invalid JSON"):
            ingest_publications(path, ROWS)


EDGE_VALUES = [None, True, 0, -1, 3.7, 2 ** 53 + 1, 2 ** 63, 1e300, math.nan, math.inf,
               "", " ", "nan", "2008", "P1@U1;P1@U2", "@", [], ["P1@U1", 5], {}]
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4)


class TestIngestNeverCrashes:
    """Arbitrary rows either ingest or raise IngestError, never another exception."""

    GOOD = {"year": 2008, "subject_category": "MAT/01", "journal_if": 1.5,
            "citations": 4, "doc_type": "article", "byline": ["P1@U1", "X1@U2"]}

    @given(changes=st.lists(st.dictionaries(st.sampled_from(PUBS_HEADER.split(",")),
                                            st.sampled_from(EDGE_VALUES), max_size=2)
                            | ANY_JSON, max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_jsonl(self, tmp_path_factory, changes):
        """A line is a valid row with up to two fields set to edge values, or any JSON."""
        rows = [{"id": f"W{i}", **self.GOOD, **c} if isinstance(c, dict) else c
                for i, c in enumerate(changes)]
        path = tmp_path_factory.mktemp("fuzz") / "pubs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        self.check(path)

    EDGE_TEXT = ["", " ", "nan", "inf", "-1e400", "3.7", "-1", "99999999999999999999",
                 "2008.0", "true", "P1@U1;P1@U1", "@", "P1@U1;;X1@U2", "P1@U1@U2"]

    @given(changes=st.lists(st.tuples(
        st.dictionaries(st.integers(0, 6), st.sampled_from(EDGE_TEXT) | st.text(max_size=8),
                        max_size=2),
        st.integers(0, 8)), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_csv(self, tmp_path_factory, changes):
        """A row is a valid one with up to two cells replaced, cut to a random length."""
        path = tmp_path_factory.mktemp("fuzz") / "pubs.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(PUBS_HEADER.split(","))
            for i, (cells, length) in enumerate(changes):
                row = [f"W{i}", "2008", "MAT/01", "1.5", "4", "article", "P1@U1;X1@U2"]
                for col, text in cells.items():
                    row[col] = text
                writer.writerow(row[:length])
        self.check(path)

    def test_every_single_field_edge_value(self, tmp_path):
        fields = PUBS_HEADER.split(",")
        for n, (field, value) in enumerate(
                (f, v) for f in fields for v in EDGE_VALUES):
            path = tmp_path / f"pubs{n}.jsonl"
            path.write_text(json.dumps({"id": "W1", **self.GOOD, field: value}) + "\n")
            self.check(path)
        good = ["W1", "2008", "MAT/01", "1.5", "4", "article", "P1@U1;X1@U2"]
        for col in range(len(fields)):
            for n, text in enumerate(self.EDGE_TEXT):
                path = tmp_path / f"pubs{col}_{n}.csv"
                path.write_text(PUBS_HEADER + "\n" + ",".join(
                    good[:col] + [f'"{text}"'] + good[col + 1:]) + "\n")
                self.check(path)

    @staticmethod
    def check(path):
        try:
            corpus = ingest_publications(path, ROWS)
        except IngestError:
            return
        assert len(corpus) == len(corpus.ids) == corpus.year.size
        assert int(corpus.n_authors.sum()) == corpus.author.size
        assert all(math.isnan(x) or 0 <= x < math.inf for x in corpus.impact.tolist())


class TestRosterNeverCrashes:
    """Arbitrary roster cells either ingest and yield covariates or raise
    IngestError, never another exception."""

    GOOD = ["P{}", "M", "1955-02-10", "1990-10-01", "MAT/01", "MAT", "public", "", ""]
    EDGE_TEXT = ["", " ", "2009-02-29", "2008-02-29", "1900-02-29", "0001-01-01",
                 "9999-12-31", "10000-01-01", "2010-12-31", "2011-01-01", "2007-01-01",
                 "1955-13-01", "x", "other", "f", "MALE", "Polytechnic", "university",
                 "BIO/05", "BIO", "P0"]
    CENSUS = [date(2010, 12, 31), date(1, 1, 1), date(9999, 12, 31)]

    @given(changes=st.lists(st.tuples(
        st.dictionaries(st.integers(0, 8), st.sampled_from(EDGE_TEXT) | st.text(max_size=8),
                        max_size=3),
        st.integers(0, 9)), max_size=4), census=st.sampled_from(CENSUS))
    @settings(deadline=None, max_examples=200)
    def test_csv(self, tmp_path_factory, changes, census):
        """A row is a valid one with up to three cells replaced, cut to a random length."""
        rows = []
        for i, (cells, length) in enumerate(changes):
            row = [self.GOOD[0].format(i), *self.GOOD[1:]]
            for col, text in cells.items():
                row[col] = text
            rows.append(row[:length])
        self.check(tmp_path_factory.mktemp("fuzz") / "roster.csv", rows, census)

    def test_every_single_cell_edge_text(self, tmp_path):
        """Feb 29 of a non-leap year, years 1 and 9999, unknown genders and
        university types and one-sided spans, one cell at a time."""
        for col in range(len(self.GOOD)):
            for n, text in enumerate(self.EDGE_TEXT):
                row = [self.GOOD[0].format(1), *self.GOOD[1:]]
                row[col] = text
                for census in self.CENSUS:
                    self.check(tmp_path / f"roster{col}_{n}.csv", [row], census)

    @staticmethod
    def check(path, rows, census):
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(ROSTER_HEADER.split(",") + ["active_start", "active_end"])
            writer.writerows(rows)
        try:
            roster = ingest_roster(path)
            covariates = derive_covariates(roster, census, (2006, 2010))
        except IngestError:
            return
        assert all(column.shape == (len(roster),) for column in covariates.values())


# Cells that csv.writer quotes, and others that it leaves alone.
CSV_TEXT = st.text(st.sampled_from(',"\r\n \t;@ae\u00e9\u20ac\x00\x1c\u2028\U0001f600')
                   | st.characters(exclude_categories=("Cs",)), max_size=6)
CSV_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308,
                                            math.inf, -math.inf, math.nan, 0.1, 1e16])


class TestWriteCsv:
    @settings(deadline=None, max_examples=300)
    @given(rows=st.lists(st.tuples(CSV_TEXT, CSV_TEXT, CSV_FLOATS, CSV_FLOATS,
                                   st.integers(-2 ** 63, 2 ** 63 - 1),
                                   st.one_of(CSV_TEXT, st.integers(), CSV_FLOATS)),
                         max_size=9),
           write_rows=st.sampled_from([1, 2, 4096]))
    def test_equals_the_csv_module_and_reads_back(self, tmp_path_factory, rows, write_rows):
        """Text, float, blanked-NaN, int and mixed columns are written byte
        for byte as csv.writer writes them, and the text reads back as it was,
        with either row end."""
        header = ["id", "name", "value", "blanked", "count", "mixed"]
        ids, names, values, blanked, counts, mixed = map(list, zip(*rows)) if rows else [[]] * 6
        columns = [ids, names, np.array(values, dtype=float), _blank_nan(blanked),
                   np.array(counts, dtype=np.int64), mixed]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with mock.patch.object(resperf.corpus, "WRITE_ROWS", write_rows):
            write_csv(path, header, columns)
            texts = {end: "".join(csv_text(header, columns, end)) for end in ("\r\n", "\n")}
        reference = path.with_name("reference.csv")
        with reference.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *zip(ids, names, values, [
                "" if math.isnan(x) else x for x in blanked], counts, mixed)])
        assert path.read_bytes() == reference.read_bytes() == texts["\r\n"].encode("utf-8")
        read = [row for _, columns in read_blocks(path, ["id", "name"]) for row in zip(*columns)]
        assert read == list(zip(ids, names))
        with reference.open(newline="", encoding="utf-8") as fh:
            cells = list(csv.reader(fh))
        for text in texts.values():
            assert list(csv.reader(io.StringIO(text, newline=""))) == cells

    def test_quotes_only_the_cells_that_need_it(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [["x,y", "plain", 'say "hi"', "two\nlines", "cr\r"],
                                     np.array([1.5, np.nan, -0.0, np.inf, 1e-300])])
        assert path.read_bytes() == (b'a,b\r\n"x,y",1.5\r\nplain,nan\r\n"say ""hi""",-0.0\r\n'
                                     b'"two\nlines",inf\r\n"cr\r",1e-300\r\n')


class TestWritePublications:
    @settings(deadline=None, max_examples=300)
    @given(roster_ids=st.lists(CSV_TEXT, min_size=3, max_size=3),
           universities=st.lists(CSV_TEXT, min_size=3, max_size=3),
           pubs=st.lists(st.tuples(st.lists(st.tuples(st.integers(-1, 2), st.integers(0, 2)),
                                            min_size=1, max_size=8),
                                   CSV_FLOATS,
                                   st.integers(0, 2 ** 53)), max_size=9),
           write_rows=st.sampled_from([1, 2, 3]))
    @example(roster_ids=["P1", "P2", "P3"], universities=["U1", "U2", "U3"], pubs=[],
             write_rows=1)
    def test_equals_the_whole_corpus_writer(self, tmp_path_factory, roster_ids,
                                            universities, pubs, write_rows):
        """Bylines built a chunk at a time, co-authors numbered on across
        chunks, give the file of the writer that names every slot at once."""
        slots = [slot for byline, _, _ in pubs for slot in byline]
        corpus = Corpus({
            "ids": [f"W{k}" for k in range(len(pubs))], "year": [2008] * len(pubs),
            "category": [k % 2 for k in range(len(pubs))], "categories": ["A", "B,c"],
            "citations": [cites for _, _, cites in pubs],
            "impact": [impact for _, impact, _ in pubs],
            "n_authors": [len(byline) for byline, _, _ in pubs],
            "author": [a for a, _ in slots], "university": [u for _, u in slots],
            "universities": universities})
        root = tmp_path_factory.mktemp("pubs")
        with mock.patch.object(resperf.corpus, "WRITE_ROWS", write_rows):
            write_publications(root / "chunked.csv", corpus, roster_ids)
            oracle.write_publications(root / "whole.csv", corpus, roster_ids)
        assert (root / "chunked.csv").read_bytes() == (root / "whole.csv").read_bytes()


class TestNameSequence:
    @given(count=st.integers(0, 7), data=st.data())
    def test_equals_the_eager_list(self, count, data):
        names = NameSequence("W{:03d}", count)
        eager = [f"W{k:03d}" for k in range(1, count + 1)]
        size = len(eager)
        assert len(names) == size
        assert [names[i] for i in range(-size, size)] == eager + eager
        assert [names[np.int64(i)] for i in range(size)] == eager
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                names[i]
        cut = data.draw(st.slices(size + 2))
        assert names[cut] == eager[cut]
        assert list(names) == eager

    def test_names_are_formatted_only_when_read(self):
        formatted = []

        class Pattern(str):
            def format(self, *args):
                formatted.append(args)
                return super().format(*args)

        names = NameSequence(Pattern("X{}"), 3)
        assert len(names) == 3 and formatted == []
        assert names[-1] == "X3" and formatted == [(3,)]


class TestCorpusIndex:
    def test_authored_by_positions_and_window(self, tiny_world):
        roster, corpus = tiny_world

        def hits(window=(2006, 2010)):
            who, rows = corpus.authored_by(window)
            return [(roster.ids[i], corpus.ids[p], pos) for i, p, pos in zip(
                who.tolist(), corpus.pub[rows].tolist(), corpus.position[rows].tolist())]

        # every rostered author, in corpus order, by roster row; no co-author
        assert hits() == [
            ("P1", "W01", 0), ("P1", "W02", 0), ("P2", "W03", 0), ("P1", "W04", 0),
            ("P2", "W04", 1), ("P2", "W05", 1), ("P3", "W06", 0), ("P3", "W07", 1),
            ("P3", "W08", 0), ("P4", "W08", 1), ("P4", "W09", 0), ("P4", "W10", 2),
            ("P3", "W11", 0), ("P4", "W11", 3)]
        # a wider window includes the 2005 publication
        assert hits((1900, 2100))[-1] == ("P3", "W12", 0)
        assert hits((2011, 2020)) == []


class TestSdsMap:
    def test_load(self, tmp_path):
        path = write_lines(tmp_path / "map.csv", "sds,uda", "MAT/01,MAT", "BIO/05,BIO")
        assert read_pairs(path, "sds", "uda") == {"MAT/01": "MAT", "BIO/05": "BIO"}

    def test_conflicting_mapping_rejected(self, tmp_path):
        path = write_lines(tmp_path / "map.csv", "sds,uda", "MAT/01,MAT", "MAT/01,BIO")
        with pytest.raises(IngestError, match="two udas"):
            read_pairs(path, "sds", "uda")


def day(d: date) -> int:
    return d.toordinal()


class TestYearArithmetic:
    def test_whole_years_anniversary(self):
        birth = day(date(1950, 6, 30))
        ends = [day(date(2010, 6, 29)), day(date(2010, 6, 30)), day(date(2010, 12, 31))]
        assert whole_years(birth, np.array(ends)).tolist() == [59, 60, 60]

    def test_exact_years_is_day_count_scaled(self):
        start, end = date(1950, 6, 30), date(2010, 12, 31)
        assert exact_years(day(start), day(end)) == (end - start).days / DAYS_PER_YEAR

    def test_working_years_defaults_to_window_length(self):
        none = np.zeros(2, dtype=np.int64)
        assert working_years(none, none, (2006, 2010)).tolist() == [5.0, 5.0]
        assert working_years(none, none, (2008, 2008)).tolist() == [1.0, 1.0]

    def test_working_years_half_leap_year(self):
        # day 184 of the 366-day 2008 leaves exactly 183 covered days
        t = working_years(np.array([day(date(2008, 7, 2))]),
                          np.array([day(date(2010, 12, 31))]), (2006, 2010))
        assert t.tolist() == [2.5]

    def test_working_years_partial_overlap(self):
        starts = np.array([day(date(2005, 1, 1)), day(date(2011, 1, 1))])
        ends = np.array([day(date(2006, 12, 31)), day(date(2012, 1, 1))])
        assert working_years(starts, ends, (2006, 2010)).tolist() == [1.0, 0.0]

    def test_working_years_rejects_reversed_window(self):
        none = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="invalid window"):
            working_years(none, none, (2010, 2006))

    @given(start_off=st.integers(min_value=0, max_value=3000),
           length=st.integers(min_value=0, max_value=3000))
    @settings(deadline=None, max_examples=200)
    def test_working_years_bounded_by_window(self, start_off, length):
        a = date(2004, 1, 1).toordinal() + start_off
        t = working_years(np.array([a]), np.array([a + length]), (2006, 2010))
        assert 0.0 <= t[0] <= 5.0


def covariates_of(prof, census=date(2010, 12, 31), window=(2006, 2010)) -> dict:
    """The one professor's covariates, as Python scalars."""
    return {name: values[0].item()
            for name, values in derive_covariates(make_roster([prof]), census, window).items()}


class TestDeriveCovariates:
    CENSUS = date(2010, 12, 31)
    WINDOW = (2006, 2010)

    def test_reference_professor(self):
        prof = make_professor(birth=date(1950, 6, 30), appointed=date(2003, 1, 1))
        cov = covariates_of(prof, self.CENSUS, self.WINDOW)
        assert cov["age_years"] == 60
        assert cov["seniority_years"] == 7
        assert cov["age"] == (self.CENSUS - date(1950, 6, 30)).days / DAYS_PER_YEAR
        assert cov["seniority"] == (self.CENSUS - date(2003, 1, 1)).days / DAYS_PER_YEAR
        assert cov["seniority"] < 8.0 and cov["recently_promoted"]
        assert cov["t"] == 5.0
        assert cov["gender_dummy"] == 1

    def test_recent_promotion_boundary(self):
        # appointed 2922 days before the census: 2922 / 365.2425 > 8
        prof = make_professor(appointed=date(2002, 12, 31))
        cov = covariates_of(prof, self.CENSUS, self.WINDOW)
        assert cov["seniority_years"] == 8
        assert cov["seniority"] > 8.0
        assert not cov["recently_promoted"]

    def test_university_type_dummies(self):
        for utype, expected in [("public", (0, 0, 0)), ("private", (1, 0, 0)),
                                ("advanced_school", (0, 1, 0)),
                                ("polytechnic", (0, 0, 1))]:
            cov = covariates_of(make_professor(university_type=utype),
                                self.CENSUS, self.WINDOW)
            assert (cov["u1"], cov["u2"], cov["u3"]) == expected

    def test_gender_dummy(self):
        cov = covariates_of(make_professor(gender="female"), self.CENSUS, self.WINDOW)
        assert cov["gender_dummy"] == 0

    def test_partial_span_t(self):
        prof = make_professor(span=(date(2008, 7, 2), date(2010, 12, 31)))
        assert covariates_of(prof, self.CENSUS, self.WINDOW)["t"] == 2.5

    def test_census_before_birth_rejected(self):
        prof = make_professor(birth=date(1950, 6, 30))
        with pytest.raises(ValueError, match="before birth"):
            covariates_of(prof, date(1950, 6, 30), self.WINDOW)

    def test_census_before_appointment_rejected(self):
        prof = make_professor(appointed=date(2011, 3, 1))
        with pytest.raises(ValueError, match="before appointment"):
            covariates_of(prof, self.CENSUS, self.WINDOW)

    def test_span_outside_window_rejected(self):
        prof = make_professor(span=(date(2011, 1, 1), date(2012, 1, 1)))
        with pytest.raises(ValueError, match="no working years"):
            covariates_of(prof, date(2012, 6, 1), self.WINDOW)

    def test_every_invalid_row_named_with_its_line(self, tmp_path):
        path = write_lines(
            tmp_path / "roster.csv", ROSTER_HEADER + ",active_start,active_end",
            "P1,M,1950-06-30,2011-03-01,MAT/01,MAT,public,,",
            "P2,M,1950-06-30,1985-03-01,MAT/01,MAT,public,,",
            "P3,F,1950-06-30,1985-03-01,MAT/01,MAT,public,2011-01-01,2012-01-01",
            "P4,F,1950-06-30,2012-03-01,MAT/01,MAT,public,2011-01-01,2012-01-01")
        with pytest.raises(IngestError) as info:
            derive_covariates(ingest_roster(path), self.CENSUS, self.WINDOW)
        assert info.value.problems == [
            "line 2: P1: census date before appointment",
            "line 4: P3: no working years inside window (2006, 2010)",
            "line 5: P4: census date before appointment",
            "line 5: P4: no working years inside window (2006, 2010)"]
        assert info.value.source == str(path)

    @given(birth_off=st.integers(min_value=0, max_value=8000),
           wait_days=st.integers(min_value=7305, max_value=20000))
    @settings(deadline=None, max_examples=150)
    def test_seniority_never_exceeds_age(self, birth_off, wait_days):
        birth = date.fromordinal(date(1930, 1, 1).toordinal() + birth_off)
        appointed = date.fromordinal(birth.toordinal() + wait_days)
        prof = make_professor(birth=birth, appointed=appointed)
        cov = covariates_of(prof, date(2010, 12, 31), (2006, 2010))
        assert cov["seniority"] < cov["age"]
        assert cov["seniority_years"] <= cov["age_years"]
        assert not math.isnan(cov["age"])
