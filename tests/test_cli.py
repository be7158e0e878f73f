"""Command-line driver: artifacts, exit codes, deterministic reruns."""

import csv
import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import resperf
import resperf.sim
from helpers import build_tiny_world, make_corpus, make_roster, professors, records
from resperf.cli import _read_frame, main
from resperf.corpus import (IngestError, derive_covariates, write_publications,
                            write_roster)

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    roster, corpus = build_tiny_world()
    write_roster(root / "roster.csv", roster)
    write_publications(root / "pubs.csv", corpus)
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
                    assert len(set(frame.ids)) == len(frame.ids)

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

    def test_nothing_fittable_exits_one_even_with_partial(self, tmp_path):
        roster, corpus = build_tiny_world()
        write_roster(tmp_path / "roster.csv", make_roster(professors(roster)[:2]))
        pubs = [p for p in records(corpus) if p.id in
                {"W01", "W02", "W03", "W04", "W05"}]
        write_publications(tmp_path / "pubs.csv", make_corpus(pubs))
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
}


@pytest.mark.parametrize("probe", sorted(JSON_INPUT_PROBES))
def test_bad_json_inputs_exit_two_naming_the_file(sim_chain, tmp_path, probe):
    command, option, content = JSON_INPUT_PROBES[probe]
    path = tmp_path / "probe.json"
    path.write_text(content)
    args = {"report": ["--roster", sim_chain / "sim" / "roster.csv",
                       "--indicators", sim_chain / "comp" / "indicators.csv"],
            "regress": ["--data", sim_chain / "comp"],
            "simulate": ["--runs", 1]}[command]
    res = invoke(command, *args, option, path, "--out", tmp_path / "x")
    assert res.exit_code == 2, res.output
    assert f"{path}: " in res.output
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

    def test_zero_runs_exits_two(self, tmp_path):
        res = invoke("simulate", "--runs", 0, "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_negative_seed_exits_two(self, tmp_path):
        res = invoke("simulate", "--seed", -5, "--runs", 1, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "seed must be nonnegative, got -5" in res.output
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
    def test_age_bin_width_must_be_finite_and_positive(self, sim_chain, tmp_path, width):
        res = invoke("report", "--roster", sim_chain / "sim" / "roster.csv",
                     "--indicators", sim_chain / "comp" / "indicators.csv",
                     "--age-bin-width", width, "--out", tmp_path / "x")
        assert res.exit_code == 2, res.output
        assert "--age-bin-width" in res.output
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
