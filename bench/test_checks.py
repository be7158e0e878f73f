"""The output checks accept the program's outputs and reject perturbed ones.

Run from the root of a checkout: python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
N = 2000


def _resperf(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "resperf.cli", *args], env=env,
                          capture_output=True, text=True, check=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    world, files = gen.write_inputs(11, N, lenient=False, out=d / "inputs")
    comp, reg, rep = d / "compute", d / "regress", d / "report"
    summary = _resperf("compute", "--roster", str(files["roster"]), "--pubs",
                       str(files["pubs"]), "--conventions", str(files["conventions"]),
                       "--out", str(comp)).stdout
    _resperf("regress", "--data", str(comp), "--dependent", "FSS", "--out", str(reg))
    _resperf("report", "--roster", str(files["roster"]), "--indicators",
             str(comp / "indicators.csv"), "--out", str(rep))
    return world, comp, reg, rep, summary


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_untouched_outputs_pass(outputs):
    world, comp, reg, rep, summary = outputs
    assert checks.check_compute_summary(summary, world) == []
    assert checks.check_indicators(world, comp) == []
    assert checks.check_covariates(world, comp) == []
    assert checks.check_percentiles(comp) == []
    assert checks.check_fits(comp, reg, "FSS") == []
    assert checks.check_report(rep, N) == []


def test_fss_off_by_one_millionth_fails(outputs, tmp_path):
    world, comp, *_ = outputs
    bad = _copy(comp, tmp_path / "compute")

    def nudge(rows):
        row = next(r for r in rows[1:] if float(r[2]) > 0)
        row[2] = repr(float(row[2]) * (1 + 1e-6))
    _rewrite_csv(bad / "indicators.csv", nudge)
    problems = checks.check_indicators(world, bad)
    assert len(problems) == 1 and problems[0].startswith("FSS of ")


def test_two_swapped_percentiles_fail(outputs, tmp_path):
    _, comp, *_ = outputs
    bad = _copy(comp, tmp_path / "compute")

    def swap(rows):
        fss = [r for r in rows[1:] if r[1] == "FSS"]
        a = fss[0]
        b = next(r for r in fss[1:] if r[2] != a[2])
        a[2], b[2] = b[2], a[2]
    _rewrite_csv(bad / "percentiles.csv", swap)
    assert len(checks.check_percentiles(bad)) == 2


def test_nudged_coefficient_fails(outputs, tmp_path):
    _, comp, reg, *_ = outputs
    bad = _copy(reg, tmp_path / "regress")
    fits = json.loads((bad / "fits.json").read_text(encoding="utf-8"))
    term = next(t for t in fits[0]["terms"] if t["term"] == "Seniority")
    term["coefficient"] *= 1.001
    (bad / "fits.json").write_text(json.dumps(fits), encoding="utf-8")
    problems = checks.check_fits(comp, bad, "FSS")
    assert any("score equation" in p for p in problems)


def test_histogram_missing_a_professor_fails(outputs, tmp_path):
    *_, rep, _ = outputs
    bad = _copy(rep, tmp_path / "report")

    def drop_one(rows):
        row = next(r for r in rows[1:] if int(r[1]) > 0)
        row[1] = str(int(row[1]) - 1)
    _rewrite_csv(bad / "age_histogram.csv", drop_one)
    assert len(checks.check_report(bad, N)) == 1


@pytest.mark.parametrize("convention", gen.CONVENTIONS)
@pytest.mark.parametrize("shared", (False, True))
def test_credit_shares_sum_to_one(convention, shared):
    for n in range(1, gen.MAX_BYLINE + 1):
        shares = checks.credit_shares(n, convention, shared)
        assert len(shares) == n and abs(sum(shares) - 1.0) < 1e-12


def test_sign_recovery_threshold():
    # 8 runs: at most 3 misses are plausible at a 95% recovery rate.
    assert checks.sign_recovery_threshold(8) == 5
    assert checks.sign_recovery_threshold(100) < 95
    assert all(np.diff([checks.sign_recovery_threshold(n) for n in range(1, 60)]) >= 0)
