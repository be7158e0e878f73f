"""Acceptance gate: the release-blocking guarantees in one file.

Each test prints a single ``ACCEPTANCE <criterion>: PASS|FAIL`` line (run with
``pytest -s`` to see them) and asserts the same condition, so the suite stays
red whenever a criterion regresses.
"""

import itertools
import time
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from helpers import (make_corpus, make_frame, make_professor, make_publication, make_roster,
                     percentile_rank, records, select_age_degree, years)
from resperf.corpus import derive_covariates
from resperf.credit import ALPHABETICAL, POSITION_WEIGHTED, byline_weights
from resperf.indicators import compute_scores
from resperf.credit import ConventionMap
from resperf.regress import (AGE_TERMS, FitResult, ModelSpec,
                             average_marginal_effects, build_design,
                             fit_fractional_logit)
from resperf.report import regression_table
from resperf.sim import SimConfig, generate_cohort, recovery_experiment


def verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# --- credit weights ---------------------------------------------------------

def test_credit_weights_sum_to_one():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        convention = ALPHABETICAL if rng.random() < 0.5 else POSITION_WEIGHTED
        weights = byline_weights(n, convention, bool(rng.random() < 0.5))
        ok = ok and len(weights) == n and all(0.0 < w <= 1.0 for w in weights)
        worst = max(worst, abs(sum(weights) - 1.0))
    for n, convention, shared in itertools.product(
            range(1, 9), (ALPHABETICAL, POSITION_WEIGHTED), (False, True)):
        weights = byline_weights(n, convention, shared)
        ok = ok and all(0.0 < w <= 1.0 for w in weights)
        worst = max(worst, abs(sum(weights) - 1.0))
    elapsed = time.perf_counter() - t0
    verdict("credit-weights-unit-sum", ok and worst <= 1e-12 and elapsed < 5.0,
            f"max |sum-1| = {worst:.2e} over 10,032 bylines, {elapsed:.2f}s")


def test_positional_weight_constants():
    four = byline_weights(4, POSITION_WEIGHTED, shared_university=True)
    six = byline_weights(6, POSITION_WEIGHTED, shared_university=False)
    ok = (four == [0.40, 0.10, 0.10, 0.40]
          and six == [0.30, 0.15, 0.05, 0.05, 0.15, 0.30])
    verdict("positional-weight-constants", ok, f"{four} / {six}")


# --- normalized indicators --------------------------------------------------

INVARIANCE_CATS = ("MAT/01", "MAT/05", "BIO/05", "BIO/10")


def invariance_world():
    """20 professors, 200 publications spread over 20 (year, category) cells."""
    rng = np.random.default_rng(202)
    roster = []
    for i in range(20):
        sds = INVARIANCE_CATS[i % 4]
        roster.append(make_professor(
            f"A{i:02d}", gender="female" if i % 3 == 0 else "male",
            sds=sds, uda=sds.split("/")[0]))
    pubs = []
    for j in range(200):
        n_authors = int(rng.integers(1, 6))
        owner_pos = int(rng.integers(0, n_authors))
        byline = []
        for pos in range(n_authors):
            if pos == owner_pos:
                byline.append((roster[int(rng.integers(0, 20))].id, "U1"))
            else:
                byline.append((f"X{j}_{pos}", f"U{int(rng.integers(1, 4))}"))
        pubs.append(make_publication(
            f"S{j:03d}", year=2006 + j % 5,
            category=INVARIANCE_CATS[int(rng.integers(0, 4))],
            journal_if=round(float(rng.uniform(0.5, 6.0)), 2),
            citations=int(rng.integers(0, 30)), byline=byline))
    return make_roster(roster), make_corpus(pubs, [p.id for p in roster])


def test_citation_scale_invariance():
    roster, corpus = invariance_world()
    window = (2006, 2010)
    conventions = ConventionMap()

    def all_scores(c):
        scores = compute_scores(roster, c, conventions, window, years(roster, window))
        return {pid: (fss, None if np.isnan(ia) else ia) for pid, fss, ia in zip(
            roster.ids, scores["FSS"].tolist(), scores["IA"].tolist())}

    base = all_scores(corpus)
    cells = sorted({(p.year, p.subject_category) for p in records(corpus, roster.ids)})
    ok = True
    worst = 0.0
    for k in (2, 5, 10):
        for cell in cells:
            scaled = make_corpus([
                replace(p, citations=p.citations * k)
                if (p.year, p.subject_category) == cell else p
                for p in records(corpus, roster.ids)], roster.ids)
            for pid, (fss, ia) in all_scores(scaled).items():
                base_fss, base_ia = base[pid]
                worst = max(worst, abs(fss - base_fss))
                ok = ok and (ia is None) == (base_ia is None)
                if ia is not None:
                    worst = max(worst, abs(ia - base_ia))
    verdict("citation-scale-invariance", ok and worst <= 1e-12,
            f"max drift {worst:.2e} over {3 * len(cells)} scaled corpora")


# --- percentile scaling -----------------------------------------------------

def oracle_percentiles(values):
    n = len(values)
    if n == 1:
        return [50.0]
    out = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(100.0 * (smaller + (equal - 1) / 2) / (n - 1))
    return out


def test_percentile_scaling_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    worst_mean = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 40))
        if i % 2:
            values = [float(v) for v in rng.integers(0, 8, n)]  # heavy ties
        else:
            values = [float(v) for v in rng.normal(0.0, 3.0, n)]
        ranks = percentile_rank(values)
        ok = ok and ranks == oracle_percentiles(values)
        ok = ok and all(0.0 <= r <= 100.0 for r in ranks)
        worst_mean = max(worst_mean, abs(sum(ranks) / n - 50.0))
        if i < 200:
            for transform in (lambda x: 3.0 * x + 7.0, lambda x: x ** 3):
                ok = ok and percentile_rank([transform(v) for v in values]) == ranks
            flipped = percentile_rank([-v for v in values])
            ok = ok and max(abs(f - (100.0 - r))
                            for f, r in zip(flipped, ranks)) <= 1e-9
    elapsed = time.perf_counter() - t0
    verdict("percentile-scaling-properties",
            ok and worst_mean <= 1e-9 and elapsed < 5.0,
            f"1,000 cohorts; max |mean-50| = {worst_mean:.2e}, {elapsed:.2f}s")


# --- solver -----------------------------------------------------------------

def test_solver_recovers_exact_coefficients():
    rng = np.random.default_rng(5)
    n = 500
    X = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, (n, 5))])
    beta_true = np.array([0.3, -0.5, 0.25, 0.8, -0.1, 0.05])
    y = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
    t0 = time.perf_counter()
    fit = fit_fractional_logit(y, X)
    elapsed = time.perf_counter() - t0
    err = float(np.abs(fit.beta - beta_true).max())
    ok = (fit.converged and err < 1e-6 and fit.grad_norm < 1e-8
          and elapsed < 1.0)
    verdict("solver-exact-recovery", ok,
            f"max |beta error| = {err:.2e}, grad sup-norm = {fit.grad_norm:.2e}, "
            f"{elapsed * 1000:.0f}ms")


# --- marginal effects -------------------------------------------------------

def synth_frame(rng, n, b_age, b_sen, b_gen, b_age2):
    rows = []
    for _ in range(n):
        age = float(rng.uniform(36, 75))
        sen = float(rng.uniform(0, min(age - 28.0, 40.0)))
        gen = int(rng.random() < 0.7)
        ut = int(rng.integers(0, 4))
        eta = (-0.2 + b_age * (age - 55.0) + b_age2 * (age - 55.0) ** 2
               + b_sen * (sen - 12.0) / 3.0 + b_gen * gen)
        y = min(max(1.0 / (1.0 + np.exp(-eta)) + float(rng.normal(0.0, 0.08)),
                    0.0), 1.0)
        rows.append(("MAT", age, sen, gen, int(ut == 1), int(ut == 2),
                     int(ut == 3), {"FSS": 100.0 * y}))
    return make_frame(rows)


def fd_age_ame(beta, design, h=1e-5):
    """Central finite difference of the mean response in raw age."""
    age_cols = [(j + 1, design.columns.index(name))
                for j, name in enumerate(AGE_TERMS) if name in design.columns]
    a = design.X[:, age_cols[0][1]]
    base = design.X @ beta
    poly = np.zeros_like(a)
    for power, col in age_cols:
        poly += beta[col] * a ** power
    up, dn = base - poly, base - poly
    for power, col in age_cols:
        up = up + beta[col] * (a + h) ** power
        dn = dn + beta[col] * (a - h) ** power
    g = lambda e: 1 / (1 + np.exp(-e))
    return 100.0 * float(((g(up) - g(dn)) / (2 * h)).mean())


def fd_continuous_ame(beta, design, name, h=1e-5):
    idx = design.columns.index(name)
    eta = design.X @ beta
    g = lambda e: 1 / (1 + np.exp(-e))
    return 100.0 * float(((g(eta + h * beta[idx]) - g(eta - h * beta[idx]))
                          / (2 * h)).mean())


def test_marginal_effects_match_finite_difference():
    ok = True
    worst = 0.0
    cubics = 0
    for seed in range(50):
        degree = seed % 3 + 1
        cubics += degree == 3
        rng = np.random.default_rng(1000 + seed)
        frame = synth_frame(rng, n=250,
                            b_age=float(rng.uniform(-0.08, -0.01)),
                            b_sen=float(rng.uniform(0.01, 0.10)),
                            b_gen=float(rng.uniform(-0.5, 0.5)),
                            b_age2=float(rng.uniform(-0.004, 0.0)) if degree > 1 else 0.0)
        design = build_design(frame, ModelSpec(), degree)
        fit = fit_fractional_logit(design.y, design.X)
        ok = ok and fit.converged
        ames = average_marginal_effects(fit.beta, design)
        worst = max(worst, abs(ames["Age"] - fd_age_ame(fit.beta, design)),
                    abs(ames["Seniority"]
                        - fd_continuous_ame(fit.beta, design, "Seniority")))
    verdict("marginal-effect-finite-difference", ok and worst < 1e-6,
            f"max |analytic - FD| = {worst:.2e} over 50 models ({cubics} cubic)")


# --- age degree selection ---------------------------------------------------

def test_aic_selects_true_degree():
    n, phi = 1000, 9.0
    quadratic_hits = linear_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        a = rng.uniform(-15.0, 15.0, n)

        def make_builder(y):
            def builder(degree):
                X = np.column_stack(
                    [np.ones(n)] + [a ** d for d in range(1, degree + 1)])
                return y, X
            return builder

        g = 1.0 / (1.0 + np.exp(-(0.3 + 0.01 * a - 0.012 * a ** 2)))
        y = rng.beta(g * phi, (1.0 - g) * phi)
        quadratic_hits += select_age_degree(make_builder(y)) == 2

        g = 1.0 / (1.0 + np.exp(-(0.2 + 0.05 * a)))
        y = rng.beta(g * phi, (1.0 - g) * phi)
        linear_hits += select_age_degree(make_builder(y)) == 1
    ok = quadratic_hits >= 90 and linear_hits >= 90
    verdict("aic-degree-selection", ok,
            f"quadratic truth: {quadratic_hits}/100 pick 2; "
            f"linear truth: {linear_hits}/100 pick 1")


# --- end-to-end sign recovery ----------------------------------------------

@pytest.fixture(scope="module")
def hundred_runs():
    config = SimConfig()  # 2,000 professors per cohort, corr target 0.7
    t0 = time.perf_counter()
    report = recovery_experiment(config, 100)
    return config, report, time.perf_counter() - t0


def test_end_to_end_sign_recovery(hundred_runs):
    config, report, elapsed = hundred_runs
    joint = sum(1 for r in report.runs
                if r.age_ame is not None and r.age_ame < 0.0
                and r.seniority_ame is not None and r.seniority_ame > 0.0)
    census = date(config.window[1], 12, 31)
    corr_off = 0.0
    for offset in range(10):
        roster, _ = generate_cohort(replace(config, seed=config.seed + offset))
        cov = derive_covariates(roster, census, config.window)
        corr = float(np.corrcoef(cov["age"], cov["seniority"])[0, 1])
        corr_off = max(corr_off,
                       abs(corr - config.age_seniority_corr_target))
    ok = joint >= 95 and corr_off <= 0.05 and elapsed < 60.0
    verdict("end-to-end-sign-recovery", ok,
            f"{joint}/100 runs with negative age AME and positive seniority AME; "
            f"max corr offset {corr_off:.4f}; 100 runs in {elapsed:.1f}s")


def test_low_explained_variance(hundred_runs):
    _, report, _ = hundred_runs
    values = [r.pseudo_r2 for r in report.runs if r.pseudo_r2 is not None]
    low = sum(v < 0.15 for v in values)
    ok = low >= 90
    verdict("low-explained-variance", ok,
            f"{low}/100 runs below 0.15 (median {np.median(values):.4f})")


# --- table rendering --------------------------------------------------------

def test_regression_table_rendering():
    fit = FitResult(
        dependent="FSS",
        terms=("Intercept", "Age", "Seniority"),
        coefficients={"Intercept": 319.192, "Age": -5.746, "Seniority": 2.13},
        robust_se={"Intercept": 56.668, "Age": 1.09, "Seniority": 0.75},
        ame={"Age": -0.464, "Seniority": 0.362},
        pseudo_r2=0.0392, n=1621, converged=True)
    text = regression_table({"Total": fit})
    by_label = {line.split("  ")[0].strip(): line for line in text.splitlines()}
    labels = [line.split("  ")[0].strip()
              for line in regression_table({"Total": fit}).splitlines()[2:]]
    ok = ("319.192 (56.668)" in by_label.get("Intercept", "")
          and "-5.746 (1.09)" in by_label.get("Age", "")
          and labels == ["Intercept", "Age", "Age²", "Age³", "Seniority",
                         "Gender", "Polytechnic", "Private", "Advanced Studies",
                         "Pseudo R-squared", "N"])
    verdict("table-rendering-fidelity", ok,
            "coefficient cells character-exact; row order fixed")
