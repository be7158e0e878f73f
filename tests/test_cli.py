"""Command-line driver: artifacts, exit codes, deterministic reruns."""

import csv
import gc
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import asdict, replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import resperf
import resperf.sim
from helpers import (build_tiny_world, make_corpus, make_roster, professors,
                     tiny_publications, write_pubs)
from resperf.cli import _read_frame, main
from resperf.corpus import IngestError, derive_covariates, write_roster
from resperf.credit import ConventionMap
from test_columnar import lenient_records
from test_parallel_ingest import assert_no_child_left, split

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    roster = build_tiny_world()[0]
    write_roster(root / "roster.csv", roster)
    write_pubs(root / "pubs.csv", tiny_publications(), roster.ids)
    return root


@pytest.fixture(scope="module")
def sim_chain(tmp_path_factory):
    """simulate -> compute chain shared by the regress/report tests."""
    root = tmp_path_factory.mktemp("chain")
    config = root / "sim.json"
    config.write_text(json.dumps({
        "n_professors": 320,
        "seed": 404,
        "fields": [["MAT/01", "MAT", "alphabetical"],
                   ["BIO/01", "BIO", "position_weighted"]],
    }))
    sim_out = root / "sim"
    res = invoke("simulate", "--config", config, "--runs", 1, "--out", sim_out)
    assert res.exit_code == 0, res.output
    comp_out = root / "comp"
    res = invoke("compute", "--roster", sim_out / "roster.csv",
                 "--pubs", sim_out / "publications.csv",
                 "--conventions", sim_out / "conventions.csv",
                 "--out", comp_out)
    assert res.exit_code == 0, res.output
    return root


class TestCompute:
    def test_writes_all_artifacts(self, tiny_files, tmp_path):
        out = tmp_path / "out"
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--out", out)
        assert res.exit_code == 0, res.output
        assert "scored 4 professors" in res.output
        for name in ("indicators.csv", "percentiles.csv", "covariates.csv",
                     "manifest.json"):
            assert (out / name).exists()
        with (out / "indicators.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["professor_id"] for r in rows] == ["P1", "P2", "P3", "P4"]
        assert all(r["inactive_flag"] == "0" for r in rows)
        with (out / "percentiles.csv").open(newline="") as fh:
            pct_rows = list(csv.DictReader(fh))
        assert len(pct_rows) == 16  # 4 professors x 4 indicators, all active

    def test_covariates_match_library(self, tiny_files, tmp_path):
        out = tmp_path / "out"
        invoke("compute", "--roster", tiny_files / "roster.csv",
               "--pubs", tiny_files / "pubs.csv", "--out", out)
        roster, _ = build_tiny_world()
        want = derive_covariates(roster, date(2010, 12, 31), (2006, 2010))
        with (out / "covariates.csv").open(newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["age"]) == want["age"][0]
        assert float(row["seniority"]) == want["seniority"][0]
        assert row["age_years"] == "60"
        assert row["t"] == "5.0"

    def test_manifest_has_no_timestamps_and_reruns_identically(
            self, tiny_files, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            res = invoke("compute", "--roster", tiny_files / "roster.csv",
                         "--pubs", tiny_files / "pubs.csv", "--out", out)
            assert res.exit_code == 0
            outs.append(out)
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert set(manifest) == {"command", "inputs", "parameters", "outputs"}
        assert "time" not in (outs[0] / "manifest.json").read_text().lower()
        for name in ("indicators.csv", "percentiles.csv", "covariates.csv",
                     "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("name,body,needle", [
        ("pubs.csv",
         "id,year,subject_category,journal_if,citations,doc_type,byline\n"
         "W1,2008,MAT/01,1.5,4,article,P1@U1;P1@U1\n",
         "line 2: author 'P1' appears twice on the byline"),
        ("pubs.csv",
         "id,year,subject_category,journal_if,citations,doc_type,byline\n"
         "W1,2008,MAT/01,NaN,4,article,P1@U1\n",
         "line 2: non-finite journal_if 'NaN'"),
        ("pubs.jsonl",
         '{"id": "W1", "year": 2008, "subject_category": "MAT/01", "journal_if": NaN, '
         '"citations": 4, "doc_type": "article", "byline": "P1@U1"}\n',
         "line 1: non-finite journal_if nan"),
        pytest.param(
            "pubs.jsonl",
            '{"id": "W1", "year": 2008, "subject_category": "MAT/01", "journal_if": 1.5, '
            '"citations": 1' + "0" * 4999 + ', "doc_type": "article", "byline": "P1@U1"}\n',
            "line 1: invalid JSON (Exceeds the limit (4300 digits) for integer string "
            "conversion: value has 5000 digits", id="pubs.jsonl-citations-of-5000-digits"),
    ])
    def test_malformed_publication_exits_two(self, tiny_files, tmp_path, name, body,
                                             needle):
        pubs = tmp_path / name
        pubs.write_text(body)
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", pubs, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert needle in res.output

    def test_missing_input_path_exits_two(self, tiny_files, tmp_path):
        res = invoke("compute", "--roster", tiny_files / "nowhere.csv",
                     "--pubs", tiny_files / "pubs.csv", "--out", tmp_path / "x")
        assert res.exit_code == 2
        assert "nowhere.csv" in res.output

    def test_bad_window_exits_two(self, tiny_files, tmp_path):
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv",
                     "--window", "zebra", "--out", tmp_path / "x")
        assert res.exit_code == 2 and "window" in res.output
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv",
                     "--window", "2010:2006", "--out", tmp_path / "x")
        assert res.exit_code == 2

    @pytest.mark.parametrize("window", ["0:0", "10000:10000", "-5:2008"])
    @pytest.mark.parametrize("command", ["compute", "report"])
    def test_window_years_outside_the_calendar_exit_two(self, tiny_files, tmp_path,
                                                         command, window):
        inputs = {"compute": ["--pubs", tiny_files / "pubs.csv"],
                  "report": ["--indicators", tiny_files / "pubs.csv"]}[command]
        res = invoke(command, "--roster", tiny_files / "roster.csv", *inputs,
                     "--window", window, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert f"window years must lie in 1-9999, got {window!r}" in res.output
        assert "Traceback" not in res.output

    def test_bad_census_date_exits_two(self, tiny_files, tmp_path):
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv",
                     "--census-date", "31/12/2010", "--out", tmp_path / "x")
        assert res.exit_code == 2 and "census" in res.output.lower()

    def test_strict_rejects_external_coauthors(self, tiny_files, tmp_path):
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--strict",
                     "--out", tmp_path / "x")
        assert res.exit_code == 2
        assert "unknown author" in res.output

    @pytest.mark.parametrize("cores", [1, 2])
    def test_strict_names_every_unknown_author_in_line_order(self, tiny_files, tmp_path,
                                                             cores):
        patches = split(cores)
        for patch in patches:
            patch.start()
        try:
            res = invoke("compute", "--roster", tiny_files / "roster.csv",
                         "--pubs", tiny_files / "pubs.csv", "--strict",
                         "--out", tmp_path / "x")
        finally:
            for patch in patches:
                patch.stop()
        assert res.exit_code == 2
        unknown = {2: "X1", 4: "X2", 5: "X3", 6: "X4", 7: "X5, X6", 8: "X7, X8", 10: "X9",
                   11: "X10, X11", 12: "X12, X13"}
        assert (f"publication ingest: {tiny_files / 'pubs.csv'}: " + "; ".join(
            f"line {line}: unknown author id(s) {names}" for line, names in unknown.items())
                in " ".join(res.output.split()))

    def test_a_roster_id_no_byline_can_name_exits_two(self, tiny_files, tmp_path):
        lines = (tiny_files / "roster.csv").read_text().splitlines()
        lines[2] = lines[2].replace("P2,", "P2@U3,", 1)
        roster = tmp_path / "roster.csv"
        roster.write_text("\n".join(lines) + "\n")
        res = invoke("compute", "--roster", roster, "--pubs", tiny_files / "pubs.csv",
                     "--out", tmp_path / "x")
        assert res.exit_code == 2
        assert (f"roster ingest: {roster}: line 3: id 'P2@U3' holds ';' or '@', so no "
                f"byline can name it") in " ".join(res.output.split())

    def test_verbose_logs_the_ingest_counts(self, tiny_files, tmp_path):
        args = ["compute", "--roster", tiny_files / "roster.csv",
                "--pubs", tiny_files / "pubs.csv", "--out", tmp_path / "x"]
        quiet = run_tree([sys.executable, "-m", "resperf.cli", *args])
        verbose = run_tree([sys.executable, "-m", "resperf.cli", "-v", *args])
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == ""
        assert (f"DEBUG resperf.corpus: {tiny_files / 'pubs.csv'}: 12 row(s) read, 0 dropped "
                f"by doc type, 12 kept, in 1 part(s); 28 byline slot(s), 15 naming a "
                f"rostered professor") in verbose.stderr.splitlines()

    @pytest.mark.parametrize("command", ["compute", "report"])
    def test_invalid_roster_covariates_exit_two_naming_every_row(self, tiny_files, tmp_path,
                                                                 command):
        lines = (tiny_files / "roster.csv").read_text().splitlines()
        lines[2] = lines[2].replace("1990-10-01", "2011-05-01")          # P2: after the census
        lines[4] = lines[4].removesuffix(",,") + ",2011-01-01,2011-12-31"  # P4: idle in window
        roster = tmp_path / "roster.csv"
        roster.write_text("\n".join(lines) + "\n")
        if command == "compute":
            res = invoke("compute", "--roster", roster, "--pubs", tiny_files / "pubs.csv",
                         "--out", tmp_path / "x")
        else:
            comp = tmp_path / "comp"
            assert invoke("compute", "--roster", tiny_files / "roster.csv",
                          "--pubs", tiny_files / "pubs.csv", "--out", comp).exit_code == 0
            res = invoke("report", "--roster", roster, "--indicators",
                         comp / "indicators.csv", "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "line 3: P2: census date before appointment" in res.output
        assert "line 5: P4: no working years inside window (2006, 2010)" in res.output
        assert not (tmp_path / "x").exists()

    def test_conflicting_convention_exits_two_naming_the_line(self, tiny_files, tmp_path):
        conventions = tmp_path / "conventions.csv"
        conventions.write_text("sds,convention\nMED/01,alphabetical\n"
                               "MED/01,position_weighted\n")
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--conventions", conventions,
                     "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert ("conventions.csv: line 3: sds 'MED/01' mapped to two conventions"
                in res.output)

    @pytest.mark.parametrize("name,line", [("pubs.csv", 3), ("roster.csv", 4),
                                           ("conventions.csv", 2)])
    def test_cell_over_the_csv_field_limit_exits_two_naming_the_line(
            self, tiny_files, tmp_path, name, line):
        files = {"roster.csv": tiny_files / "roster.csv", "pubs.csv": tiny_files / "pubs.csv",
                 "conventions.csv": tmp_path / "source.csv"}
        files["conventions.csv"].write_text("sds,convention\nMED/01,alphabetical\n")
        lines = files[name].read_text().splitlines()
        lines[line - 1] += "x" * (csv.field_size_limit() + 1)
        files[name] = tmp_path / name
        files[name].write_text("\n".join(lines) + "\n")
        res = invoke("compute", "--roster", files["roster.csv"], "--pubs", files["pubs.csv"],
                     "--conventions", files["conventions.csv"], "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert (f"{files[name]}: line {line}: field larger than field limit "
                f"({csv.field_size_limit()})") in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("blocked", ["indicators.csv", "covariates.csv",
                                         "percentiles.csv"])
    def test_a_failed_write_exits_one_as_a_one_process_write_does(self, tiny_files, tmp_path,
                                                                  blocked):
        """A file of --out that cannot be written, in the forked child or
        here, fails compute with its error; no child is left behind."""
        outputs = []
        for forked in (True, False):
            out = tmp_path / f"forked-{forked}"
            (out / blocked).mkdir(parents=True)
            if forked:
                res = invoke("compute", "--roster", tiny_files / "roster.csv",
                             "--pubs", tiny_files / "pubs.csv", "--out", out)
            else:
                with mock.patch.object(os, "fork", side_effect=OSError("no fork")):
                    res = invoke("compute", "--roster", tiny_files / "roster.csv",
                                 "--pubs", tiny_files / "pubs.csv", "--out", out)
            assert_no_child_left()
            assert res.exit_code == 1, res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert res.output.replace(str(out), "OUT") == \
                f"Error: output: [Errno 21] Is a directory: 'OUT/{blocked}'\n"
            assert not (out / "manifest.json").exists()
            outputs.append(res.output.replace(str(out), "OUT"))
        assert outputs[0] == outputs[1]

    def test_where_fork_does_not_exist_every_file_is_written_here(self, tiny_files, tmp_path,
                                                                    monkeypatch):
        """Without ``os.fork`` compute writes all its files itself, byte for
        byte as a forked write does."""
        outputs = []
        for forked in (True, False):
            if not forked:
                monkeypatch.delattr(os, "fork")
            out = tmp_path / f"forked-{forked}"
            res = invoke("compute", "--roster", tiny_files / "roster.csv",
                         "--pubs", tiny_files / "pubs.csv", "--out", out)
            assert res.exit_code == 0, res.output
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]

    def test_force_convention_recorded(self, tiny_files, tmp_path):
        out = tmp_path / "out"
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv",
                     "--force-convention", "position_weighted", "--out", out)
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["force_convention"] == "position_weighted"


# (file, line, column, value) written into a copy of compute's output; None
# drops the column, "<line 2>" copies line 2's value and "<cut>" ends the row
# before the column.
REGRESS_INPUT_PROBES = {
    "age-not-a-number": ("covariates.csv", 2, "age", "abc"),
    "seniority-infinite": ("covariates.csv", 4, "seniority", "inf"),
    "gender-dummy-two": ("covariates.csv", 3, "gender_dummy", "2"),
    "gender-dummy-column-missing": ("covariates.csv", 1, "gender_dummy", None),
    "duplicate-professor": ("covariates.csv", 3, "professor_id", "<line 2>"),
    "short-row": ("covariates.csv", 3, "seniority", "<cut>"),
    "percentile-nan": ("percentiles.csv", 2, "percentile", "nan"),
    "percentile-200": ("percentiles.csv", 5, "percentile", "200"),
    "percentile-negative": ("percentiles.csv", 3, "percentile", "-5"),
    "percentile-infinite": ("percentiles.csv", 4, "percentile", "inf"),
    "unknown-indicator": ("percentiles.csv", 2, "indicator", "H"),
    "unknown-professor": ("percentiles.csv", 2, "professor_id", "NOBODY"),
    "repeated-percentile": ("percentiles.csv", 3, "indicator", "<line 2>"),
    "uda-empty": ("covariates.csv", 3, "uda", ""),
    "age-absurd": ("covariates.csv", 2, "age", "1e200"),
    "age-at-bound": ("covariates.csv", 4, "age", "10000"),
    "seniority-negative": ("covariates.csv", 3, "seniority", "-0.5"),
}


def rewrite_cell(path: Path, line: int, column: str, value: str | None) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    if value is None:
        rows = [r[:j] + r[j + 1:] for r in rows]
    elif value == "<cut>":
        rows[line - 1] = rows[line - 1][:j]
    else:
        rows[line - 1][j] = rows[1][j] if value == "<line 2>" else value
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestRegress:
    @pytest.mark.parametrize("probe", sorted(REGRESS_INPUT_PROBES))
    def test_bad_inputs_exit_two_naming_file_and_line(self, sim_chain, tmp_path, probe):
        name, line, column, value = REGRESS_INPUT_PROBES[probe]
        data = tmp_path / "comp"
        shutil.copytree(sim_chain / "comp", data)
        rewrite_cell(data / name, line, column, value)
        res = invoke("regress", "--data", data, "--out", tmp_path / "reg")
        assert res.exit_code == 2, res.output
        assert f"{name}: line {line}:" in res.output

    def test_edge_values_give_a_valid_frame_or_ingest_error(self, sim_chain, tmp_path):
        texts = ("", "abc", "nan", "inf", "-inf", "1e309", "-5", "-0", "0", "1", "2",
                 "0.5", "100", "100.5", "FSS", "H", "R00001", "a,b")
        data = tmp_path / "comp"
        for name, columns in (("covariates.csv", ("professor_id", "age", "seniority",
                                                  "gender_dummy", "u3")),
                              ("percentiles.csv", ("professor_id", "indicator",
                                                   "percentile"))):
            for column in columns:
                for text in texts:
                    shutil.rmtree(data, ignore_errors=True)
                    shutil.copytree(sim_chain / "comp", data)
                    rewrite_cell(data / name, 3, column, text)
                    try:
                        frame = _read_frame(data / "covariates.csv",
                                            data / "percentiles.csv")
                    except IngestError as exc:
                        assert "line " in str(exc)
                        continue
                    assert np.isfinite(frame.age).all()
                    assert np.isfinite(frame.covariates).all()
                    assert np.isin(frame.covariates[:, 1:], (0.0, 1.0)).all()
                    ranked = frame.percentiles[~np.isnan(frame.percentiles)]
                    assert ((ranked >= 0.0) & (ranked <= 100.0)).all()

    def test_byte_order_marks_are_read_as_utf8(self, tiny_files, sim_chain, tmp_path):
        """A roster, a corpus and a covariates.csv saved with a UTF-8
        byte-order mark read as they do without one."""
        marked = tmp_path / "marked"
        marked.mkdir()
        for name in ("roster.csv", "pubs.csv"):
            (marked / name).write_text((tiny_files / name).read_text(encoding="utf-8"),
                                       encoding="utf-8-sig")
        outputs = []
        for folder in (tiny_files, marked):
            out = tmp_path / f"comp-{folder.name}"
            res = invoke("compute", "--roster", folder / "roster.csv",
                         "--pubs", folder / "pubs.csv", "--out", out)
            assert res.exit_code == 0, res.output
            outputs.append([(out / name).read_bytes() for name in
                            ("indicators.csv", "percentiles.csv", "covariates.csv")])
        assert outputs[0] == outputs[1]
        data = tmp_path / "comp"
        shutil.copytree(sim_chain / "comp", data)
        covariates = data / "covariates.csv"
        covariates.write_text(covariates.read_text(encoding="utf-8"), encoding="utf-8-sig")
        fits = []
        for folder in (sim_chain / "comp", data):
            res = invoke("regress", "--data", folder, "--out", tmp_path / f"reg-{len(fits)}")
            assert res.exit_code == 0, res.output
            fits.append((tmp_path / f"reg-{len(fits)}" / "fits.json").read_bytes())
        assert fits[0] == fits[1]

    def test_total_only_fit(self, sim_chain):
        out = sim_chain / "reg_total"
        res = invoke("regress", "--data", sim_chain / "comp", "--total-only",
                     "--max-degree", 1, "--out", out)
        assert res.exit_code == 0, res.output
        table = (out / "regression_table.txt").read_text()
        assert "Intercept" in table and "Pseudo R-squared" in table
        fits = json.loads((out / "fits.json").read_text())
        assert [f["group"] for f in fits] == ["Total"]
        assert fits[0]["n"] == 320
        terms = {t["term"] for t in fits[0]["terms"]}
        assert {"Intercept", "Age", "Seniority", "Gender"} <= terms

    def test_per_discipline_columns(self, sim_chain):
        out = sim_chain / "reg_uda"
        res = invoke("regress", "--data", sim_chain / "comp",
                     "--max-degree", 1, "--out", out)
        assert res.exit_code == 0, res.output
        fits = json.loads((out / "fits.json").read_text())
        assert [f["group"] for f in fits] == ["Total", "BIO", "MAT"]
        header = (out / "regression_table.txt").read_text().splitlines()[0]
        assert "Total" in header and "BIO" in header and "MAT" in header

    def test_seniority_cap_shrinks_sample(self, sim_chain):
        out = sim_chain / "reg_cap"
        res = invoke("regress", "--data", sim_chain / "comp", "--total-only",
                     "--max-degree", 1, "--max-seniority", 15, "--out", out)
        assert res.exit_code == 0, res.output
        fits = json.loads((out / "fits.json").read_text())
        assert 0 < fits[0]["n"] < 320

    def test_alternative_dependent_drops_inactive(self, sim_chain):
        out = sim_chain / "reg_ia"
        res = invoke("regress", "--data", sim_chain / "comp", "--total-only",
                     "--max-degree", 1, "--dependent", "IA", "--out", out)
        assert res.exit_code == 0, res.output
        fits = json.loads((out / "fits.json").read_text())
        assert fits[0]["dependent"] == "IA"
        assert fits[0]["n"] < 320

    def test_spec_file_controls_model(self, sim_chain):
        spec = sim_chain / "spec.json"
        spec.write_text(json.dumps({"dependent": "P",
                                    "covariates": ["Seniority", "Gender"]}))
        out = sim_chain / "reg_spec"
        res = invoke("regress", "--data", sim_chain / "comp", "--total-only",
                     "--max-degree", 1, "--spec", spec, "--out", out)
        assert res.exit_code == 0, res.output
        fits = json.loads((out / "fits.json").read_text())
        assert fits[0]["dependent"] == "P"
        terms = {t["term"] for t in fits[0]["terms"]}
        assert "U1" not in terms and "Gender" in terms

    def test_explicit_flag_overrides_spec_dependent(self, sim_chain):
        spec = sim_chain / "spec2.json"
        spec.write_text(json.dumps({"dependent": "P"}))
        out = sim_chain / "reg_spec2"
        res = invoke("regress", "--data", sim_chain / "comp", "--total-only",
                     "--max-degree", 1, "--spec", spec,
                     "--dependent", "FSS", "--out", out)
        assert res.exit_code == 0, res.output
        fits = json.loads((out / "fits.json").read_text())
        assert fits[0]["dependent"] == "FSS"

    def test_failed_group_exits_one_unless_partial(self, tiny_files, tmp_path):
        comp = tmp_path / "comp"
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--out", comp)
        assert res.exit_code == 0
        # per-discipline groups of two professors cannot support the model
        res = invoke("regress", "--data", comp, "--out", tmp_path / "reg")
        assert res.exit_code == 1
        assert "regression" in res.output and "allow-partial" in res.output
        res = invoke("regress", "--data", comp, "--allow-partial",
                     "--out", tmp_path / "reg2")
        assert res.exit_code == 0
        fits = json.loads((tmp_path / "reg2" / "fits.json").read_text())
        assert [f["group"] for f in fits] == ["Total"]

    def test_failed_groups_named_with_their_errors(self, tiny_files, tmp_path):
        comp = tmp_path / "comp"
        res = invoke("compute", "--roster", tiny_files / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--out", comp)
        assert res.exit_code == 0
        res = invoke("regress", "--data", comp, "--out", tmp_path / "reg")
        assert res.exit_code == 1
        assert res.output.startswith(
            "Error: regression: BIO: all candidate degrees failed: need more observations "
            "than terms (n=2, k=2); MAT: all candidate degrees failed: "), res.output

    def test_nothing_fittable_exits_one_even_with_partial(self, tmp_path):
        roster, _ = build_tiny_world()
        write_roster(tmp_path / "roster.csv", make_roster(professors(roster)[:2]))
        write_pubs(tmp_path / "pubs.csv", [p for p in tiny_publications() if p.id in
                                           {"W01", "W02", "W03", "W04", "W05"}],
                   roster.ids)
        comp = tmp_path / "comp"
        res = invoke("compute", "--roster", tmp_path / "roster.csv",
                     "--pubs", tmp_path / "pubs.csv", "--out", comp)
        assert res.exit_code == 0
        res = invoke("regress", "--data", comp, "--allow-partial",
                     "--out", tmp_path / "reg")
        assert res.exit_code == 1
        assert "no group could be fitted" in res.output

    def test_missing_data_dir_exits_two(self, tmp_path):
        res = invoke("regress", "--data", tmp_path / "ghost", "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_spec_age_degree_points_to_max_degree(self, sim_chain, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"age_degree": 2}')
        res = invoke("regress", "--data", sim_chain / "comp", "--spec", spec,
                     "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert f"{spec}: age_degree" in res.output and "--max-degree" in res.output
        assert "age_degree" not in invoke("regress", "--help").output

    def test_nan_seniority_cap_exits_two(self, sim_chain, tmp_path):
        res = invoke("regress", "--data", sim_chain / "comp", "--max-seniority", "nan",
                     "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "max_seniority must be a number, got nan" in res.output


# (command, option, file content): a malformed JSON object input of each
# command, which must exit 2 naming the file.
JSON_INPUT_PROBES = {
    "totals-list": ("report", "--totals", "[1, 2]"),
    "totals-fraction": ("report", "--totals", '{"MAT": 10.7, "BIO": 1000}'),
    "totals-boolean": ("report", "--totals", '{"MAT": 1000, "BIO": true}'),
    "totals-invalid-json": ("report", "--totals", '{"MAT": 1000,'),
    "totals-negative": ("report", "--totals", '{"MAT": -5, "BIO": 1000}'),
    "spec-list": ("regress", "--spec", "[1]"),
    "spec-covariates-number": ("regress", "--spec", '{"covariates": 5}'),
    "spec-max-seniority-list": ("regress", "--spec", '{"max_seniority": [1]}'),
    "spec-dependent-number": ("regress", "--spec", '{"dependent": 3}'),
    "spec-max-seniority-nan": ("regress", "--spec", '{"max_seniority": NaN}'),
    "spec-age-degree": ("regress", "--spec", '{"age_degree": 9}'),
    "sim-list": ("simulate", "--config", "[1]"),
    "sim-field-without-uda": ("simulate", "--config",
                              '{"fields": [{"sds": "MAT/01", "convention": "alphabetical"}]}'),
    "sim-window-one-year": ("simulate", "--config", '{"window": [2006]}'),
    "sim-n-professors-string": ("simulate", "--config", '{"n_professors": "5"}'),
    "sim-shares-not-a-list": ("simulate", "--config", '{"university_type_shares": 1}'),
    "sim-effect-nan": ("simulate", "--config", '{"true_age_effect": NaN}'),
    "sim-seed-negative": ("simulate", "--config", '{"seed": -1, "n_professors": 50}'),
    # integers over sys.get_int_max_str_digits() digits
    "totals-5000-digits": ("report", "--totals", '{"MAT": 1' + "0" * 4999 + "}"),
    "spec-5000-digits": ("regress", "--spec", '{"max_seniority": 1' + "0" * 4999 + "}"),
    "sim-5000-digits": ("simulate", "--config", '{"seed": 1' + "0" * 4999 + "}"),
}


def json_input_args(sim_chain, command):
    """The other arguments of a command given a JSON object input."""
    return {"report": ["--roster", sim_chain / "sim" / "roster.csv",
                       "--indicators", sim_chain / "comp" / "indicators.csv"],
            "regress": ["--data", sim_chain / "comp"],
            "simulate": ["--runs", 1]}[command]


@pytest.mark.parametrize("probe", sorted(JSON_INPUT_PROBES))
def test_bad_json_inputs_exit_two_naming_the_file(sim_chain, tmp_path, probe):
    command, option, content = JSON_INPUT_PROBES[probe]
    path = tmp_path / "probe.json"
    path.write_text(content)
    res = invoke(command, *json_input_args(sim_chain, command), option, path,
                 "--out", tmp_path / "x")
    assert res.exit_code == 2, res.output
    assert f"{path}: " in res.output
    assert not (tmp_path / "x").exists()


# option: (command, a valid JSON object for it)
GOOD_JSON_INPUTS = {
    "--totals": ("report", '{"MAT": 1000, "BIO": 1000}'),
    "--spec": ("regress", '{"dependent": "P", "max_seniority": 30}'),
    "--config": ("simulate", '{"n_professors": 40, "seed": 3}'),
}


# A JSON value nested past the decoder's recursion limit.
TOO_DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("option", sorted(GOOD_JSON_INPUTS))
def test_json_nested_too_deeply_exits_two_naming_the_file(sim_chain, tmp_path, option):
    command, _ = GOOD_JSON_INPUTS[option]
    path = tmp_path / "deep.json"
    path.write_text('{"seed": ' + TOO_DEEP + "}")
    res = invoke(command, *json_input_args(sim_chain, command), option, path,
                 "--out", tmp_path / "x")
    assert res.exit_code == 2, res.output
    assert f"{path}: invalid JSON (nested too deeply)" in res.output


@pytest.mark.parametrize("option", sorted(GOOD_JSON_INPUTS))
def test_json_inputs_may_start_with_a_byte_order_mark(sim_chain, tmp_path, option):
    command, content = GOOD_JSON_INPUTS[option]
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / f"{encoding}.json"
        path.write_text(content, encoding=encoding)
        out = tmp_path / encoding
        res = invoke(command, *json_input_args(sim_chain, command), option, path,
                     "--out", out)
        assert res.exit_code == 0, res.output
        outputs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()
                              if p.name != "manifest.json"))
    assert outputs[0] == outputs[1]


INPUT_PATH_OPTIONS = {
    "compute": ("--roster", "--pubs", "--conventions", "--sds-map"),
    "regress": ("--data", "--spec"),
    "simulate": ("--config",),
    "report": ("--roster", "--indicators", "--totals"),
}


@pytest.mark.parametrize("command, option", [(command, option) for command, options in
                                             INPUT_PATH_OPTIONS.items() for option in options])
def test_every_input_path_must_exist(sim_chain, tmp_path, command, option):
    """Each input-path option exits 2 naming a path that does not exist,
    before any input is read."""
    comp, sim = sim_chain / "comp", sim_chain / "sim"
    given = {"--roster": sim / "roster.csv", "--pubs": sim / "publications.csv",
             "--data": comp, "--indicators": comp / "indicators.csv"}
    args = [arg for name in INPUT_PATH_OPTIONS[command] if name in given and name != option
            for arg in (name, given[name])]
    missing = tmp_path / "nowhere"
    res = invoke(command, *args, option, missing, "--out", tmp_path / "x")
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}': Path '{missing}' does not exist." in res.output
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["covariates.csv", "percentiles.csv"])
def test_a_data_directory_missing_a_file_exits_two_naming_it(sim_chain, tmp_path, name):
    comp = tmp_path / "comp"
    shutil.copytree(sim_chain / "comp", comp)
    (comp / name).unlink()
    res = invoke("regress", "--data", comp, "--out", tmp_path / "x")
    assert res.exit_code == 2, res.output
    assert f"regression inputs: [Errno 2] No such file or directory: '{comp / name}'" \
        in res.output
    assert not (tmp_path / "x").exists()


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n_professors": 150, "seed": 12}))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            res = invoke("simulate", "--config", config, "--runs", 2, "--out", out)
            assert res.exit_code == 0, res.output
            outs.append(out)
        for name in ("roster.csv", "publications.csv", "conventions.csv",
                     "recovery.json", "recovery_runs.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        recovery = json.loads((outs[0] / "recovery.json").read_text())
        assert recovery["n_runs"] == 2
        with (outs[0] / "recovery_runs.csv").open(newline="") as fh:
            assert len(list(csv.reader(fh))) == 3  # header + 2 runs

    def test_seed_and_size_overrides(self, tmp_path):
        out = tmp_path / "out"
        res = invoke("simulate", "--runs", 1, "--seed", 99,
                     "--n-professors", 120, "--out", out)
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 99
        assert manifest["parameters"]["n_professors"] == 120
        with (out / "roster.csv").open(newline="") as fh:
            assert len(list(csv.reader(fh))) == 121

    def test_each_run_generates_its_cohort_once(self, tmp_path, monkeypatch):
        calls = []
        original = resperf.sim.generate_cohort

        def counted(config):
            calls.append(config.seed)
            return original(config)
        monkeypatch.setattr(resperf.sim, "generate_cohort", counted)
        monkeypatch.setattr(resperf.cli, "generate_cohort", counted)
        res = invoke("simulate", "--runs", 3, "--seed", 40, "--n-professors", 150,
                     "--out", tmp_path / "out")
        assert res.exit_code == 0, res.output
        assert calls == [40, 41, 42]

    def test_each_cohort_is_freed_before_the_next_is_drawn(self, tmp_path, monkeypatch):
        """simulate hands run 0's cohort to the runs and keeps no reference to
        it, so reference counting frees every run's corpus before the next
        cohort is drawn."""
        drawn = []
        original = resperf.sim.generate_cohort

        def draw(config):
            assert [ref() for ref in drawn] == [None] * len(drawn)
            roster, corpus = original(config)
            drawn.append(weakref.ref(corpus))
            return roster, corpus
        monkeypatch.setattr(resperf.sim, "generate_cohort", draw)
        monkeypatch.setattr(resperf.cli, "generate_cohort", draw)
        gc.disable()
        try:
            res = invoke("simulate", "--runs", 3, "--seed", 40, "--n-professors", 150,
                         "--out", tmp_path / "out")
        finally:
            gc.enable()
        assert res.exit_code == 0, res.output
        assert len(drawn) == 3 and drawn[-1]() is None

    def test_a_later_run_failing_exits_one_naming_the_stage(self, tmp_path, monkeypatch):
        original = resperf.sim.generate_cohort

        def draw(config):
            if config.seed == 41:
                raise ValueError("infeasible correlation target")
            return original(config)
        monkeypatch.setattr(resperf.sim, "generate_cohort", draw)
        res = invoke("simulate", "--runs", 2, "--seed", 40, "--n-professors", 150,
                     "--out", tmp_path / "out")
        assert res.exit_code == 1
        assert "Error: recovery: infeasible correlation target" in res.output

    def test_zero_runs_exits_two(self, tmp_path):
        res = invoke("simulate", "--runs", 0, "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_negative_seed_exits_two(self, tmp_path):
        res = invoke("simulate", "--seed", -5, "--runs", 1, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "seed must be nonnegative, got -5" in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [["--n-professors", 0], ["--n-professors", 1],
                                      ["--config", '{"n_professors": 1}']])
    def test_cohort_under_two_professors_exits_two(self, tmp_path, args):
        if args[0] == "--config":
            config = tmp_path / "sim.json"
            config.write_text(args[1])
            args = ["--config", config]
        res = invoke("simulate", *args, "--runs", 1, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "a cohort needs at least 2 professors" in res.output
        assert not (tmp_path / "x").exists()

    def test_two_professors_generate(self, tmp_path):
        res = invoke("simulate", "--n-professors", 2, "--runs", 1, "--out", tmp_path / "x")
        assert res.exit_code == 0, res.output
        with (tmp_path / "x" / "roster.csv").open(newline="") as fh:
            assert len(list(csv.reader(fh))) == 3

    def test_bad_config_exits_two(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text('{"age_seniority_corr_target": 2.0}')
        res = invoke("simulate", "--config", config, "--runs", 1,
                     "--out", tmp_path / "x")
        assert res.exit_code == 2


# (line, column, value) written into a copy of compute's indicators.csv, as
# in REGRESS_INPUT_PROBES.
REPORT_INPUT_PROBES = {
    "n-pubs-column-missing": (1, "n_pubs", None),
    "n-pubs-beyond-int64": (4, "n_pubs", "99999999999999999999"),
    "fss-nan": (2, "fss", "nan"),
    "fss-negative": (3, "fss", "-0.5"),
    "fss-empty": (4, "fss", ""),
    "p-not-a-number": (2, "p", "abc"),
    "ia-infinite": (3, "ia", "inf"),
    "ij-negative": (4, "ij", "-1"),
    "n-pubs-fraction": (2, "n_pubs", "1.5"),
    "n-pubs-negative": (3, "n_pubs", "-1"),
    "duplicate-professor": (3, "professor_id", "<line 2>"),
}


def _years(low, high):
    return st.builds("{}{}{}".format, st.integers(low, high), st.sampled_from([":", "-"]),
                     st.integers(low, high))


# Option values: mostly near the fixed inputs' years and ages, some anywhere.
WINDOWS = st.one_of(_years(1995, 2015), _years(-3, 10_003),
                    st.sampled_from(["1:9999", "2006:", ":", "zebra"]), st.text(max_size=10))
CENSUS_DATES = st.one_of(st.none(), st.dates(date(2000, 1, 1), date(2020, 12, 31)),
                         st.dates(), st.text(max_size=12)).map(
    lambda d: d.isoformat() if isinstance(d, date) else d)
NUMBERS = st.one_of(st.none(), st.floats(0, 100), st.floats().map(repr),
                    st.integers(-10**6, 10**6).map(str), st.text(max_size=8))


class TestOptionsNeverCrash:
    """Any value of the window, census-date, bin-width, seniority-cap, cohort-size
    and run-count options exits 0, 2, or 1 with a one-line "Error:", never with a
    traceback.  Cohorts stay at most 60 professors and 2 runs."""

    @staticmethod
    def run(*args, **options):
        options = [a for name, value in options.items() if value is not None
                   for a in (f"--{name.replace('_', '-')}", value)]
        with tempfile.TemporaryDirectory() as out:
            res = invoke(*args, *options, "--out", out)
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            repr(res.exception)
        assert "Traceback" not in res.output
        if res.exit_code == 1:
            assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1, \
                res.stderr

    @settings(deadline=None, max_examples=60)
    @given(window=WINDOWS, census_date=CENSUS_DATES)
    def test_compute(self, sim_chain, window, census_date):
        sim = sim_chain / "sim"
        self.run("compute", "--roster", sim / "roster.csv", "--pubs", sim / "publications.csv",
                 "--conventions", sim / "conventions.csv", window=window,
                 census_date=census_date)

    @settings(deadline=None, max_examples=60)
    @given(window=WINDOWS, census_date=CENSUS_DATES, age_bin_width=NUMBERS)
    def test_report(self, sim_chain, window, census_date, age_bin_width):
        self.run("report", "--roster", sim_chain / "sim" / "roster.csv",
                 "--indicators", sim_chain / "comp" / "indicators.csv", window=window,
                 census_date=census_date, age_bin_width=age_bin_width)

    @settings(deadline=None, max_examples=30)
    @given(max_seniority=NUMBERS)
    def test_regress(self, sim_chain, max_seniority):
        self.run("regress", "--data", sim_chain / "comp", "--max-degree", 1,
                 max_seniority=max_seniority)

    @settings(deadline=None, max_examples=30)
    @given(n_professors=st.integers(-3, 60), runs=st.one_of(st.none(), st.integers(-2, 2)))
    def test_simulate(self, n_professors, runs):
        self.run("simulate", "--seed", 5, n_professors=n_professors, runs=runs)


class TestReport:
    @pytest.mark.parametrize("probe", sorted(REPORT_INPUT_PROBES))
    def test_bad_indicators_exit_two_naming_file_and_line(self, sim_chain, tmp_path,
                                                          probe):
        line, column, value = REPORT_INPUT_PROBES[probe]
        indicators = tmp_path / "indicators.csv"
        shutil.copy(sim_chain / "comp" / "indicators.csv", indicators)
        rewrite_cell(indicators, line, column, value)
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", indicators, "--out", tmp_path / "rep")
        assert res.exit_code == 2, res.output
        assert f"indicators.csv: line {line}:" in res.output

    def test_writes_tables_and_histograms(self, sim_chain, tmp_path):
        out = tmp_path / "rep"
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--out", out)
        assert res.exit_code == 0, res.output
        text = (out / "descriptives.txt").read_text()
        assert "Total" in text and "Inactive %" in text
        with (out / "age_histogram.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_left", "count", "share"]
        assert sum(float(r[2]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-9)
        assert (out / "appointment_age_histogram.csv").exists()
        with (out / "fss_cv_by_sds.csv").open(newline="") as fh:
            cv_rows = list(csv.reader(fh))
        assert cv_rows[0] == ["sds", "coefficient_of_variation"]
        assert len(cv_rows) >= 2

    def test_population_totals_feed_coverage(self, sim_chain, tmp_path):
        totals = tmp_path / "totals.json"
        totals.write_text(json.dumps({"MAT": 1000, "BIO": 1000}))
        out = tmp_path / "rep"
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--totals", totals, "--fmt", "csv", "--out", out)
        assert res.exit_code == 0, res.output
        with (out / "descriptives.csv").open(newline="") as fh:
            first_table = fh.read().split("\n\n")[0]
        rows = {r[0]: r for r in csv.reader(first_table.splitlines())}
        assert float(rows["Total"][2]) == pytest.approx(320 / 2000 * 100, abs=0.01)

    @pytest.mark.parametrize("bio", [0, 1])
    def test_totals_below_the_rostered_professors_exit_two(self, sim_chain, tmp_path, bio):
        with (sim_chain / "comp" / "covariates.csv").open(newline="") as fh:
            rostered = sum(row["uda"] == "BIO" for row in csv.DictReader(fh))
        totals = tmp_path / "totals.json"
        totals.write_text(json.dumps({"MAT": 0, "BIO": bio}))
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--totals", totals, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert (f"{totals}: total below the rostered professors for 'BIO' ({bio} < "
                f"{rostered}), 'MAT' (0 < {320 - rostered})") in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
    def test_age_bin_width_must_be_finite_and_positive(self, sim_chain, tmp_path, width):
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--age-bin-width", width, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "--age-bin-width" in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("width", ["1e-300", "0.001"])
    def test_age_bin_width_giving_too_many_bins_exits_two(self, sim_chain, tmp_path, width):
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--age-bin-width", width, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert f"age-bin-width: bin width {float(width)!r} is too small" in res.output
        assert not (tmp_path / "x").exists()

    def test_every_unscored_roster_row_named(self, sim_chain, tmp_path):
        lines = (sim_chain / "comp" / "indicators.csv").read_text().splitlines()
        gone = (2, 5, 9)  # indicators.csv lists professors in roster order
        indicators = tmp_path / "indicators.csv"
        indicators.write_text("\n".join(
            line for n, line in enumerate(lines, start=1) if n not in gone) + "\n")
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", indicators, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "roster.csv: line 2: " in res.output
        for n in gone:
            pid = lines[n - 1].split(",")[0]
            assert f"line {n}: {pid}: no scores in {indicators}" in res.output
        assert res.output.count("no scores") == len(gone)

    def test_score_gap_exits_two(self, tiny_files, sim_chain, tmp_path):
        res = invoke("report", "--roster", tiny_files / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--out", tmp_path / "x")
        assert res.exit_code == 2
        assert "no scores" in res.output

    def test_a_score_for_a_professor_off_the_roster_exits_two(self, sim_chain, tmp_path):
        indicators = tmp_path / "indicators.csv"
        shutil.copy(sim_chain / "comp" / "indicators.csv", indicators)
        with indicators.open("a", newline="") as fh:
            fh.write("ZZZ999,MAT/01,1.0,1.0,,,1,0\r\n")
        n = len(indicators.read_text().splitlines())
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", indicators, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert res.output.endswith(
            f"Error: indicators: {indicators}: line {n}: unknown professor_id 'ZZZ999'\n")
        assert not (tmp_path / "x").exists()

    def test_a_roster_with_no_professors_exits_two_naming_it(self, sim_chain, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_text((sim_chain / "sim" / "roster.csv").read_text().splitlines()[0] + "\n")
        res = invoke("report", "--roster", roster,
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert f"Error: roster ingest: {roster}: the roster lists no professors\n" \
            in res.output
        assert not (tmp_path / "x").exists()

    def test_a_carriage_return_in_a_csv_cell_reads_back(self, tiny_files, tmp_path):
        roster, _ = build_tiny_world()
        write_roster(tmp_path / "roster.csv",
                     replace(roster, uda_names=["A\rB" if name == "MAT" else name
                                                for name in roster.uda_names]))
        res = invoke("compute", "--roster", tmp_path / "roster.csv",
                     "--pubs", tiny_files / "pubs.csv", "--out", tmp_path / "comp")
        assert res.exit_code == 0, res.output
        res = invoke("report", "--roster", tmp_path / "roster.csv",
                     "--indicators", tmp_path / "comp" / "indicators.csv",
                     "--fmt", "csv", "--out", tmp_path / "rep")
        assert res.exit_code == 0, res.output
        with (tmp_path / "rep" / "descriptives.csv").open(newline="") as fh:
            udas = [row[0] for row in csv.reader(fh) if row]
        assert udas.count("A\rB") == 2  # a row in each table


def repeat_column(path: Path, column: str) -> None:
    """Append a second copy of ``column`` to every row of a CSV file."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(row + [row[j]] for row in rows)


# (command, file of the simulated chain, its column given twice, exit
# code): a repeated column that the command reads exits 2; regress does not
# read covariates.csv's sds.
REPEATED_COLUMN_PROBES = {
    "roster": ("compute", "sim/roster.csv", "gender", 2),
    "pubs": ("compute", "sim/publications.csv", "citations", 2),
    "covariates": ("regress", "comp/covariates.csv", "age", 2),
    "indicators": ("report", "comp/indicators.csv", "fss", 2),
    "covariates-unread": ("regress", "comp/covariates.csv", "sds", 0),
}


@pytest.mark.parametrize("probe", sorted(REPEATED_COLUMN_PROBES))
def test_a_repeated_column_exits_two_if_read(sim_chain, tmp_path, probe):
    command, name, column, code = REPEATED_COLUMN_PROBES[probe]
    sim, comp = tmp_path / "sim", tmp_path / "comp"
    shutil.copytree(sim_chain / "sim", sim)
    shutil.copytree(sim_chain / "comp", comp)
    repeat_column(tmp_path / name, column)
    args = {"compute": ["--roster", sim / "roster.csv", "--pubs", sim / "publications.csv"],
            "regress": ["--data", comp],
            "report": ["--roster", sim / "roster.csv", "--indicators", comp / "indicators.csv"],
            }[command]
    res = invoke(command, *args, "--out", tmp_path / "x")
    assert res.exit_code == code, res.output
    if code:
        assert f"{tmp_path / name}: line 1: duplicate column(s) {column}" in res.output


def test_an_empty_professor_id_exits_two(sim_chain, tmp_path):
    """A professor whose id is blanked in covariates.csv and percentiles.csv
    alike once fitted with the rest, and a blank-id indicators.csv row was
    passed over; either is an empty id, as in a roster."""
    comp = tmp_path / "comp"
    shutil.copytree(sim_chain / "comp", comp)
    for name in ("covariates.csv", "percentiles.csv"):
        with (comp / name).open(newline="") as fh:
            rows = list(csv.reader(fh))
        pid = rows[1][0] if name == "covariates.csv" else pid
        with (comp / name).open("w", newline="") as fh:
            csv.writer(fh).writerows([["" if row[0] == pid else row[0], *row[1:]]
                                      for row in rows])
    res = invoke("regress", "--data", comp, "--out", tmp_path / "reg")
    assert res.exit_code == 2, res.output
    assert f"{comp / 'covariates.csv'}: line 2: empty professor_id" in res.output
    assert "line 3:" not in res.output

    indicators = comp / "indicators.csv"
    with indicators.open("a", newline="") as fh:
        fh.write(" ,MAT,1.0,1.0,,,1,0\r\n")
    n = len(indicators.read_text().splitlines())
    res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                 "--indicators", indicators, "--out", tmp_path / "rep")
    assert res.exit_code == 2, res.output
    assert f"{indicators}: line {n}: empty professor_id" in res.output


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC_DIR = Path(resperf.__file__).resolve().parents[1]


def run_tree(args, bin_dir=None):
    """Run ``args`` against the resperf under test, not an installed copy.

    ``PYTHONPATH`` starts with the ``src/`` directory the tests imported
    resperf from; ``bin_dir``, when given, goes first on ``PATH``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", os.defpath)])
    return subprocess.run(args, capture_output=True, text=True, env=env)


def test_no_command_imports_numpy_ma(tiny_files, sim_chain, tmp_path):
    """numpy 2's np.unique(x) imports numpy.ma, 7-21 ms and 1.4 MB a
    process, to ask whether x is masked; no command needs it."""
    code = ("import sys\n"
            "from resperf.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print('numpy.ma loaded:', 'numpy.ma' in sys.modules, file=sys.stderr)\n")
    comp, sim = sim_chain / "comp", sim_chain / "sim"
    for args in (["compute", "--roster", tiny_files / "roster.csv",
                  "--pubs", tiny_files / "pubs.csv"],
                 ["regress", "--data", comp],
                 ["report", "--roster", sim / "roster.csv", "--indicators",
                  comp / "indicators.csv"],
                 ["simulate", "--n-professors", "60", "--runs", "2"]):
        proc = run_tree([sys.executable, "-c", code, *args, "--out", tmp_path / args[0]])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "numpy.ma loaded: False", (args[0], proc.stderr)


def test_outputs_do_not_depend_on_the_hash_seed(tiny_files, tmp_path, monkeypatch):
    """Byline authors are checked for repeats by their hash; compute gives
    the same exit code, stdout, stderr and files under every hash seed, on
    the tiny world and on a corpus that names a rostered author twice."""
    twice = tmp_path / "twice.csv"
    lines = (tiny_files / "pubs.csv").read_text().splitlines(keepends=True)
    assert lines[2].count("P1@U1") == 1
    twice.write_text("".join([*lines[:2], lines[2].replace("P1@U1", "P1@U1;P1@U5"),
                              *lines[3:]]))
    for pubs, code in ((tiny_files / "pubs.csv", 0), (twice, 2)):
        runs = []
        for seed in ("0", "1", "2"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            out = tmp_path / pubs.stem / seed
            proc = run_tree([sys.executable, "-m", "resperf.cli", "compute",
                             "--roster", tiny_files / "roster.csv", "--pubs", pubs,
                             "--out", out])
            files = {path.name: path.read_bytes() for path in out.iterdir()} \
                if out.exists() else {}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0][0] == code, runs[0][2]
        assert runs[0] == runs[1] == runs[2]
    assert "line 3: author 'P1' appears twice on the byline" in runs[0][2]


def write_console_script(bin_dir, name):
    """Write the launcher pip generates for the ``[project.scripts]`` entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    script = bin_dir / name
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)


class TestEntryPoint:
    def test_console_script_help(self):
        proc = run_tree([sys.executable, "-m", "resperf.cli", "--help"])
        assert proc.returncode == 0
        for sub in ("compute", "regress", "simulate", "report"):
            assert sub in proc.stdout

    def test_installed_script(self, tmp_path):
        # "Usage: resperf" shows the script ran under its own name;
        # `python -m` would print "Usage: python -m resperf.cli".
        write_console_script(tmp_path, "resperf")
        proc = run_tree(["resperf", "--help"], bin_dir=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Usage: resperf" in proc.stdout
        assert "compute" in proc.stdout


class TestLenientStderr:
    """Lenient compute prints each skip on its own prefixed stderr line."""

    PREFIX = "WARNING resperf.indicators: "

    def test_skip_lines_are_the_oracle_messages_prefixed(self, tmp_path, caplog):
        people, pubs = lenient_records()
        roster = make_roster(people)
        # the first skipped publication's id holds a line break
        k = next(k for k, p in enumerate(pubs) if p.journal_if is None
                 and 2006 <= p.year <= 2010 and any(a.startswith("P") for a, _ in p.byline))
        head = pubs[k].id
        pubs[k] = replace(pubs[k], id=f"{head}\nsecond line")
        write_roster(tmp_path / "roster.csv", roster)
        (tmp_path / "pubs.jsonl").write_text("".join(
            json.dumps({**asdict(p), "byline": [f"{a}@{u}" for a, u in p.byline]}) + "\n"
            for p in pubs), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="resperf.indicators"):
            oracle.roster_scores(roster, make_corpus(pubs, roster.ids), ConventionMap(),
                                 (2006, 2010))
        want = [self.PREFIX + line for r in caplog.records
                for line in r.getMessage().split("\n")]

        proc = run_tree([sys.executable, "-m", "resperf.cli", "compute",
                         "--roster", tmp_path / "roster.csv",
                         "--pubs", tmp_path / "pubs.jsonl", "--out", tmp_path / "x"])
        assert proc.returncode == 0, proc.stderr
        got = proc.stderr.splitlines()
        assert got == want
        assert any(line.endswith("unknown impact factor") for line in got)
        assert any("no impact-factor scaling cell" in line for line in got)
        broken = [i for i, line in enumerate(got) if line.endswith(f": skipping {head}")]
        assert broken
        assert all(got[i + 1] == f"{self.PREFIX}second line, unknown impact factor"
                   for i in broken)


# Cells of the whole rows written into compute's covariates.csv and
# percentiles.csv: values near the valid ones, ids and labels the files hold,
# and anything.
REGRESS_CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "1", "2", "-1", "-0", "0.5", "37.25", "50", "100",
                     "100.5", "1e200", "1e309", "nan", "inf", "-inf", "MAT", "BIO", "FSS",
                     "P", "IA", "IJ", "P00001", "P00002", "a,b", '"', "x\ny"]),
    st.floats().map(repr), st.text(max_size=6))


class TestRegressInputsNeverCrash:
    """Whole rows, copied from compute's covariates.csv or percentiles.csv
    with up to three cells set to anything and maybe cut short, put in place
    of rows or between them, make regress exit 0, 2 naming a line, or 1 with
    a one-line "Error: regression:"; never a traceback."""

    @settings(deadline=None, max_examples=80)
    @given(name=st.sampled_from(["covariates.csv", "percentiles.csv"]),
           rows=st.lists(st.tuples(st.integers(0, 2000), st.booleans(), st.integers(0, 2000),
                                   st.lists(st.tuples(st.integers(0, 8), REGRESS_CELLS),
                                            max_size=3),
                                   st.one_of(st.none(), st.integers(0, 8))),
                         min_size=1, max_size=3))
    def test_regress(self, sim_chain, name, rows):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "comp"
            shutil.copytree(sim_chain / "comp", data)
            with (data / name).open(newline="") as fh:
                table = list(csv.reader(fh))
            for at, insert, source, changes, cut in rows:
                row = list(table[source % len(table)])
                for j, cell in changes if row else ():
                    row[j % len(row)] = cell
                row = row[:cut]
                if insert:
                    table.insert(at % (len(table) + 1), row)
                else:
                    table[at % len(table)] = row
            with (data / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(table)
            res = invoke("regress", "--data", data, "--max-degree", 1,
                         "--out", Path(tmp) / "reg")
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            repr(res.exception)
        assert "Traceback" not in res.output
        if res.exit_code == 2:
            assert re.search(r"\.csv: line \d+: ", " ".join(res.output.split())), res.output
        elif res.exit_code == 1:
            assert res.stderr.startswith("Error: regression: ") \
                and res.stderr.count("\n") == 1, res.stderr
        else:
            assert res.exit_code == 0, res.output
