"""Output checks made apart from the program.

Each check returns a list of problems; an empty list means the output holds.
Indicators are recomputed with numpy from the generator's arrays, with credit
shares written out from the rules in ``resperf.credit``'s docstring; the
percentiles, fits and reports are checked against properties any correct
output must have.  Nothing here imports ``resperf``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import gen

INDICATORS = ("FSS", "P", "IA", "IJ")
RTOL = 1e-9
# Score equations: |X_j'(y - G(Xb))| / sum_i |X_ij|, a residual mean weighted
# by the column, is below 1e-12 at a converged fit and about 1e-4 after a 0.1%
# nudge of the seniority coefficient.
SCORE_TOL = 1e-8
SHOWN = 5


def credit_shares(n: int, convention: str, shared: bool) -> list[float]:
    """Byline credit by position, from the documented rules.

    Alphabetical: 1/n each.  Position-weighted, first and last author from
    the same university: 40% each, the middle authors share 20%.  Otherwise
    30% first, 30% last, 15% second and penultimate, the rest share 10%.
    Shares that leave nobody for the residual pool are renormalized.
    """
    if convention == gen.ALPHABETICAL or n == 1:
        return [1.0 / n] * n
    if n == 2:
        return [0.5, 0.5]
    if shared:
        return [0.4] + [0.2 / (n - 2)] * (n - 2) + [0.4]
    if n == 3:
        return [0.3 / 0.75, 0.15 / 0.75, 0.3 / 0.75]
    if n == 4:
        return [0.3 / 0.9, 0.15 / 0.9, 0.15 / 0.9, 0.3 / 0.9]
    return [0.3, 0.15] + [0.1 / (n - 4)] * (n - 4) + [0.15, 0.3]


def _credit_table() -> np.ndarray:
    """table[position_weighted, shared, n, position]."""
    table = np.zeros((2, 2, gen.MAX_BYLINE + 1, gen.MAX_BYLINE))
    for pw, conv in enumerate(gen.CONVENTIONS):
        for shared in (0, 1):
            for n in range(1, gen.MAX_BYLINE + 1):
                table[pw, shared, n, :n] = credit_shares(n, conv, bool(shared))
    return table


def expected_indicators(world: gen.World) -> dict[str, np.ndarray]:
    """FSS, P, IA, IJ and publication counts per professor, plus the number
    of (professor, publication) pairs whose impact factor cannot be scaled."""
    kept = ~world.excluded
    cell = world.year * 1000 + world.category
    _, inv = np.unique(cell, return_inverse=True)
    cited = kept & (world.citations > 0)
    n_cited = np.bincount(inv, weights=cited)
    sum_cited = np.bincount(inv, weights=np.where(cited, world.citations, 0))
    known = kept & (world.if_milli >= 0)
    if_value = world.if_milli / 1000
    n_known = np.bincount(inv, weights=known)
    sum_known = np.bincount(inv, weights=np.where(known, if_value, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cbar = sum_cited / n_cited
        ifbar = sum_known / n_known
        c_ratio = np.where(world.citations > 0, world.citations / cbar[inv], 0.0)
        i_ok = known & (n_known[inv] > 0) & (ifbar[inv] != 0)
        i_ratio = np.where(i_ok, if_value / ifbar[inv], 0.0)

    in_window = kept & (world.year >= gen.WINDOW[0]) & (world.year <= gen.WINDOW[1])
    rows = in_window[world.a_pub]
    pub, pos, prof = world.a_pub[rows], world.a_pos[rows], world.a_prof[rows]
    pw = np.array([f[2] == gen.POSITION_WEIGHTED for f in gen.FIELDS])[world.field]
    share = _credit_table()[pw[prof].astype(int), world.shared[pub].astype(int),
                            world.n_authors[pub], pos]
    n = world.n_professors
    n_pubs = np.bincount(prof, minlength=n)
    n_ij = np.bincount(prof, weights=i_ok[pub], minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ia = np.bincount(prof, weights=c_ratio[pub], minlength=n) / n_pubs
        ij = np.bincount(prof, weights=i_ratio[pub], minlength=n) / n_ij
    return {
        "FSS": np.bincount(prof, weights=c_ratio[pub] * share, minlength=n) / world.t,
        "P": n_pubs / world.t,
        "IA": np.where(n_pubs > 0, ia, np.nan),
        "IJ": np.where(n_ij > 0, ij, np.nan),
        "n_pubs": n_pubs,
        "warnings": int((~i_ok[pub]).sum()),
        "n_kept": int(kept.sum()),
        "n_dropped": int(world.excluded.sum()),
    }


def read_columns(path: Path) -> dict[str, list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader)) or [()] * len(header)
    return {name: list(col) for name, col in zip(header, columns)}


def read_indicators(path: Path) -> dict:
    """indicators.csv by column; IA and IJ are NaN where undefined."""
    cols = read_columns(path)
    out = {"id": cols["professor_id"], "sds": cols["sds"],
           "n_pubs": np.array(cols["n_pubs"], dtype=int),
           "inactive": np.array(cols["inactive_flag"], dtype=int)}
    for name in INDICATORS:
        out[name] = np.array([float(v) if v else math.nan for v in cols[name.lower()]])
    return out


def _mismatch(name: str, got: np.ndarray, want: np.ndarray, ids) -> list[str]:
    bad = ~np.isclose(got, want, rtol=RTOL, atol=1e-12, equal_nan=True)
    return [f"{name} of {ids[i]}: got {got[i]!r}, expected {want[i]!r}"
            for i in np.flatnonzero(bad)[:SHOWN]]


def check_indicators(world: gen.World, comp: Path, want: dict | None = None
                     ) -> list[str]:
    """indicators.csv against the recomputation from the generator's arrays."""
    want = want or expected_indicators(world)
    got = read_indicators(comp / "indicators.csv")
    n = world.n_professors
    ids = [gen.professor_id(i) for i in range(n)]
    if got["id"] != ids:
        return [f"indicators.csv lists {len(got['id'])} professors, not the "
                f"{n} rostered ones in roster order"]
    problems = [f"sds of {ids[i]}" for i in range(n)
                if got["sds"][i] != gen.FIELDS[world.field[i]][0]][:SHOWN]
    for name in INDICATORS:
        problems += _mismatch(name, got[name], want[name], ids)
    problems += _mismatch("n_pubs", got["n_pubs"], want["n_pubs"], ids)
    if not np.array_equal(got["inactive"], (got["n_pubs"] == 0).astype(int)):
        problems.append("inactive_flag differs from n_pubs == 0")
    return problems


def check_covariates(world: gen.World, comp: Path) -> list[str]:
    cols = read_columns(comp / "covariates.csv")
    n = world.n_professors
    ids = [gen.professor_id(i) for i in range(n)]
    if cols["professor_id"] != ids:
        return [f"covariates.csv lists {len(cols['professor_id'])} professors, not "
                f"the {n} rostered ones in roster order"]
    problems = [f"covariates uda of {ids[i]}: got {cols['uda'][i]!r}"
                for i in range(n) if cols["uda"][i] != gen.FIELDS[world.field[i]][1]]
    utype = np.array([u[0] for u in gen.UNIVERSITY_TYPES])[world.utype]
    want = {
        "age": world.age_days / gen.DAYS_PER_YEAR,
        "seniority": world.seniority_days / gen.DAYS_PER_YEAR,
        "t": world.t,
        "gender_dummy": world.male,
        "u1": utype == "private",
        "u2": utype == "advanced_school",
        "u3": utype == "polytechnic",
    }
    for key, value in want.items():
        problems += _mismatch(f"covariates {key}", np.array(cols[key], dtype=float),
                              value.astype(float), ids)
    return problems[:SHOWN]


def midrank_percentiles(values: np.ndarray) -> np.ndarray:
    """100 * (midrank - 1) / (n - 1); a single value scores 50."""
    n = values.size
    if n == 1:
        return np.array([50.0])
    _, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    midrank = first + (counts - 1) / 2.0 + 1.0
    return 100.0 * (midrank[inv] - 1.0) / (n - 1)


def read_percentiles(path: Path, ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """percentiles.csv as a (professor, indicator) matrix, NaN where absent,
    plus problems with rows that name no professor or repeat a cell."""
    cols = read_columns(path)
    row_of = {pid: i for i, pid in enumerate(ids)}
    matrix = np.full((len(ids), len(INDICATORS)), np.nan)
    problems = []
    for pid, name, value in zip(cols["professor_id"], cols["indicator"],
                                cols["percentile"]):
        i = row_of.get(pid)
        j = INDICATORS.index(name) if name in INDICATORS else None
        if i is None or j is None or not math.isnan(matrix[i, j]):
            problems.append(f"unexpected percentile row {pid},{name}")
            continue
        matrix[i, j] = float(value)
    return matrix, problems[:SHOWN]


def check_percentiles(comp: Path) -> list[str]:
    """percentiles.csv against midranks of indicators.csv within each SDS."""
    ind = read_indicators(comp / "indicators.csv")
    got, problems = read_percentiles(comp / "percentiles.csv", ind["id"])
    sds = np.array(ind["sds"])
    for j, name in enumerate(INDICATORS):
        values = ind[name]
        want = np.full(values.size, np.nan)
        for field in np.unique(sds):
            cohort = (sds == field) & ~np.isnan(values)
            if cohort.any():
                want[cohort] = midrank_percentiles(values[cohort])
        problems += _mismatch(f"{name} percentile", got[:, j], want, ind["id"])
    return problems


def _design_rows(comp: Path, dependent: str):
    """(group, age, covariate columns, y) for rows with the dependent defined."""
    cov = read_columns(comp / "covariates.csv")
    pct, _ = read_percentiles(comp / "percentiles.csv", cov["professor_id"])
    y = pct[:, INDICATORS.index(dependent)] / 100.0
    rows = ~np.isnan(y)
    other = np.column_stack([np.array(cov[k], dtype=float)
                             for k in ("seniority", "gender_dummy", "u1", "u2", "u3")])
    return (np.array(cov["uda"])[rows], np.array(cov["age"], dtype=float)[rows],
            other[rows], y[rows])


_OTHER_TERMS = ("Seniority", "Gender", "U1", "U2", "U3")


def check_fits(comp: Path, reg: Path, dependent: str) -> list[str]:
    """fits.json: score equations, AIC, group sizes and the planted signs."""
    fits = json.loads((reg / "fits.json").read_text(encoding="utf-8"))
    uda, age, other, y = _design_rows(comp, dependent)
    groups = {"Total": np.ones(uda.size, dtype=bool)}
    groups.update({g: uda == g for g in np.unique(uda).tolist()})
    problems = []
    if sorted(f["group"] for f in fits) != sorted(groups):
        problems.append(f"fitted groups {[f['group'] for f in fits]}, "
                        f"expected {sorted(groups)}")
    for fit in fits:
        name = fit["group"]
        rows = groups.get(name)
        if rows is None:
            continue
        if fit["n"] != int(rows.sum()):
            problems.append(f"{name}: n is {fit['n']}, group has {int(rows.sum())}")
            continue
        a, oth, yy = age[rows], other[rows], y[rows]
        ac = a - fit["age_mean"]
        raw, centred = [], []
        for term in fit["terms"]:
            label = term["term"]
            if label == "Intercept":
                col = np.ones(a.size)
                raw.append(col)
                centred.append(col)
            elif label.startswith("Age"):
                power = int(label[4:]) if "^" in label else 1
                raw.append(a ** power)
                centred.append(ac ** power)
            else:
                col = oth[:, _OTHER_TERMS.index(label)]
                raw.append(col)
                centred.append(col)
        beta = np.array([t["coefficient"] for t in fit["terms"]]) / 100.0
        eta = np.column_stack(raw) @ beta
        resid = yy - 1.0 / (1.0 + np.exp(-eta))
        xc = np.column_stack(centred)
        score = np.abs(xc.T @ resid) / np.abs(xc).sum(axis=0)
        if score.max() > SCORE_TOL:
            worst = int(score.argmax())
            problems.append(f"{name}: score equation for {fit['terms'][worst]['term']} "
                            f"is {score.max():.3g}, above {SCORE_TOL:g}")
        qll = -float((yy * np.logaddexp(0.0, -eta)
                      + (1.0 - yy) * np.logaddexp(0.0, eta)).sum())
        if not math.isclose(qll, fit["qll"], rel_tol=1e-8):
            problems.append(f"{name}: qll is {fit['qll']!r}, recomputed {qll!r}")
        aic = 2.0 * len(fit["terms"]) - 2.0 * qll
        if not math.isclose(aic, fit["aic"], rel_tol=1e-8):
            problems.append(f"{name}: aic is {fit['aic']!r}, 2k - 2qll gives {aic!r}")
        if name == "Total":
            ame = {t["term"]: t["ame"] for t in fit["terms"]}
            if not (ame.get("Age") or 0.0) < 0.0:
                problems.append(f"Total {dependent}: age AME {ame.get('Age')} is not "
                                "negative, the planted sign")
            if not (ame.get("Seniority") or 0.0) > 0.0:
                problems.append(f"Total {dependent}: seniority AME "
                                f"{ame.get('Seniority')} is not positive, the planted sign")
    return problems


def check_report(rep: Path, n_professors: int) -> list[str]:
    problems = []
    for name in ("age_histogram.csv", "appointment_age_histogram.csv"):
        with (rep / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(int(r["count"]) for r in rows)
        if total != n_professors:
            problems.append(f"{name}: counts sum to {total}, roster has {n_professors}")
        share = sum(float(r["share"]) for r in rows)
        if not math.isclose(share, 1.0, rel_tol=1e-9):
            problems.append(f"{name}: shares sum to {share!r}")
    return problems


def check_compute_summary(stdout: str, world: gen.World,
                          want: dict | None = None) -> list[str]:
    want = want or expected_indicators(world)
    line = (f"scored {world.n_professors} professors over {want['n_kept']} "
            f"publications ({want['n_dropped']} dropped by document type)")
    return [] if line in stdout else [f"compute printed {stdout.strip()!r}, expected {line!r}"]


def read_recovery(sim: Path, runs: int) -> tuple[list[str], int, int, int]:
    """(problems, failed runs, runs with a negative age AME, runs with a
    positive seniority AME) from ``recovery.json``."""
    rep = json.loads((sim / "recovery.json").read_text(encoding="utf-8"))
    problems = []
    if rep["n_runs"] != runs or len(rep["runs"]) != runs:
        problems.append(f"recovery.json has {len(rep['runs'])} runs, asked for {runs}")
    ok = [r for r in rep["runs"] if r["error"] is None]
    if len(rep["runs"]) - len(ok) != rep["n_failed"]:
        problems.append(f"n_failed {rep['n_failed']} disagrees with the runs' errors")
    age_neg = sum(r["age_ame"] is not None and r["age_ame"] < 0 for r in ok)
    sen_pos = sum(r["seniority_ame"] is not None and r["seniority_ame"] > 0 for r in ok)
    return problems, rep["n_failed"], age_neg, sen_pos


def sign_recovery_threshold(n_runs: int, rate: float = 0.95,
                            alpha: float = 1e-3) -> int:
    """Fewest correct signs in ``n_runs`` that a true recovery rate of at
    least ``rate`` would produce with probability above ``alpha``."""
    def tail(misses: int) -> float:  # P(at least `misses` misses)
        return sum(math.comb(n_runs, k) * (1 - rate) ** k * rate ** (n_runs - k)
                   for k in range(misses, n_runs + 1))
    misses = 0
    while misses < n_runs and tail(misses + 1) > alpha:
        misses += 1
    return n_runs - misses
