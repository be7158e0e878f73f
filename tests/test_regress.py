"""Quasi-likelihood solver, inference, marginal effects, and design handling."""

import math
from dataclasses import replace

import numpy as np
import pytest

import resperf.regress
from helpers import make_frame
from oracle import exact_dependence
from resperf.indicators import INDICATORS
from resperf.regress import (AGE_TERMS, CoreFit, Design, FitError, ModelSpec,
                             QuasiSeparationError,
                             average_marginal_effects, bernoulli_qll,
                             build_design, collinearity_check,
                             fit_fractional_logit, fit_model,
                             fit_with_selected_degree, logistic,
                             mcfadden_pseudo_r2, select_age_degree)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def synth_frame(rng, n=400, b_age=-0.05, b_sen=0.06, b_gen=0.4, b_age2=0.0,
                noise=0.08, uda="MAT"):
    rows = []
    for i in range(n):
        age = float(rng.uniform(36, 75))
        sen = float(rng.uniform(0, min(age - 28.0, 40.0)))
        gen = int(rng.random() < 0.7)
        ut = int(rng.integers(0, 4))
        eta = (-0.2 + b_age * (age - 55.0) + b_age2 * (age - 55.0) ** 2
               + b_sen * (sen - 12.0) / 3.0 + b_gen * gen)
        y = min(max(sigmoid(eta) + float(rng.normal(0.0, noise)), 0.0), 1.0)
        rows.append((f"R{i}", uda, age, sen, gen, int(ut == 1), int(ut == 2),
                     int(ut == 3), {"FSS": 100.0 * y}))
    return make_frame(rows)


class TestLogisticPieces:
    def test_logistic_basic_values(self):
        assert logistic(0.0) == 0.5
        assert logistic(np.array([500.0, -500.0])) == pytest.approx([1.0, 0.0], abs=1e-12)
        assert np.all(np.isfinite(logistic(np.array([-800.0, 800.0]))))

    def test_qll_finite_at_extremes(self):
        y = np.array([0.0, 1.0, 0.5])
        eta = np.array([-700.0, 700.0, 0.0])
        q = bernoulli_qll(y, eta)
        assert math.isfinite(q)
        assert q == pytest.approx(math.log(0.5), abs=1e-12)

    def test_qll_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        y = rng.random(30)
        eta = rng.normal(0, 2, 30)
        g = 1 / (1 + np.exp(-eta))
        want = float((y * np.log(g) + (1 - y) * np.log(1 - g)).sum())
        assert bernoulli_qll(y, eta) == pytest.approx(want, rel=1e-12)


class TestSolver:
    def test_intercept_only_closed_form(self):
        y = np.full(40, 0.25)
        fit = fit_fractional_logit(y, np.ones((40, 1)))
        assert fit.converged
        assert fit.beta[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-9)

    def test_balanced_mean_half_gives_zero_intercept(self):
        y = np.full(20, 0.5)
        fit = fit_fractional_logit(y, np.ones((20, 1)))
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-10)

    def test_single_slope_matches_grid_search(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 200)
        y = np.clip(1 / (1 + np.exp(-0.8 * x)) + rng.normal(0, 0.05, 200), 0, 1)
        X = x[:, None]
        fit = fit_fractional_logit(y, X)
        grid = np.linspace(-2.0, 2.0, 4001)
        qlls = [bernoulli_qll(y, b * x) for b in grid]
        best = grid[int(np.argmax(qlls))]
        assert fit.beta[0] == pytest.approx(best, abs=2e-3)  # grid spacing 1e-3
        assert fit.qll >= max(qlls) - 1e-12

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        n = 500
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 5))])
        beta = np.array([0.3, -0.6, 0.4, 0.25, -0.15, 0.5])
        y = 1 / (1 + np.exp(-(X @ beta)))
        fit = fit_fractional_logit(y, X)
        assert fit.converged
        assert np.abs(fit.beta - beta).max() < 1e-6
        assert fit.grad_norm < 1e-8

    def test_gradient_is_zero_at_solution(self):
        rng = np.random.default_rng(3)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 3))])
        y = np.clip(1 / (1 + np.exp(-(X @ [0.1, 0.4, -0.3, 0.2])))
                    + rng.normal(0, 0.1, n), 0, 1)
        fit = fit_fractional_logit(y, X)
        grad = X.T @ (y - 1 / (1 + np.exp(-(X @ fit.beta))))
        assert np.abs(grad).max() < 1e-8

    def test_aic_definition(self):
        y = np.full(30, 0.4)
        fit = fit_fractional_logit(y, np.ones((30, 1)))
        assert fit.aic == pytest.approx(2 * 1 - 2 * fit.qll, rel=1e-12)

    def test_quasi_separation_detected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 100)
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(100), x])
        with pytest.raises(QuasiSeparationError, match="diverging"):
            fit_fractional_logit(y, X)

    def test_more_terms_than_rows_rejected(self):
        with pytest.raises(FitError, match="more observations than terms"):
            fit_fractional_logit(np.array([0.5, 0.5]), np.ones((2, 2)))

    def test_out_of_range_response_rejected(self):
        with pytest.raises(FitError, match="lie in"):
            fit_fractional_logit(np.array([0.5, 1.5]), np.ones((2, 1)))

    @pytest.mark.parametrize("bad", ["y", "X"])
    def test_non_finite_input_rejected(self, bad):
        y = np.array([0.2, 0.5, 0.7, 0.4])
        X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        if bad == "y":
            y[1] = np.nan
        else:
            X[2, 1] = np.inf
        with pytest.raises(FitError, match="must be finite"):
            fit_fractional_logit(y, X)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FitError):
            fit_fractional_logit(np.array([0.5, 0.5, 0.5]), np.ones((2, 1)))
        with pytest.raises(FitError, match="2-D"):
            fit_fractional_logit(np.array([0.5]), np.ones(1))

    def test_column_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        n = 250
        x = rng.normal(0, 1, n)
        y = np.clip(1 / (1 + np.exp(-0.5 * x)) + rng.normal(0, 0.08, n), 0, 1)
        X1 = np.column_stack([np.ones(n), x])
        X2 = np.column_stack([np.ones(n), 10.0 * x])
        f1 = fit_fractional_logit(y, X1)
        f2 = fit_fractional_logit(y, X2)
        assert f2.beta[1] == pytest.approx(f1.beta[1] / 10.0, rel=1e-8)
        assert f2.qll == pytest.approx(f1.qll, abs=1e-10)
        assert math.sqrt(f2.cov_robust[1, 1]) == pytest.approx(
            math.sqrt(f1.cov_robust[1, 1]) / 10.0, rel=1e-6)


class TestCovariances:
    def fitted(self):
        rng = np.random.default_rng(6)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 2))])
        y = np.clip(1 / (1 + np.exp(-(X @ [0.2, 0.5, -0.4])))
                    + rng.normal(0, 0.1, n), 0, 1)
        return fit_fractional_logit(y, X), y, X

    def test_sandwich_matches_per_observation_loop(self):
        fit, y, X = self.fitted()
        g = 1 / (1 + np.exp(-(X @ fit.beta)))
        A = np.zeros((3, 3))
        B = np.zeros((3, 3))
        for i in range(len(y)):
            xi = X[i]
            A += g[i] * (1 - g[i]) * np.outer(xi, xi)
            B += (y[i] - g[i]) ** 2 * np.outer(xi, xi)
        want = np.linalg.inv(A) @ B @ np.linalg.inv(A)
        assert np.allclose(fit.cov_robust, want, rtol=1e-10)
        assert np.allclose(fit.cov_classical, np.linalg.inv(A), rtol=1e-10)

    def test_covariances_are_symmetric_psd(self):
        fit, _, _ = self.fitted()
        for cov in (fit.cov_robust, fit.cov_classical):
            assert np.allclose(cov, cov.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestPseudoR2:
    def test_hand_computed_null(self):
        rng = np.random.default_rng(7)
        n = 200
        x = rng.normal(0, 1, n)
        y = np.clip(1 / (1 + np.exp(-0.7 * x)) + rng.normal(0, 0.05, n), 0, 1)
        X = np.column_stack([np.ones(n), x])
        fit = fit_fractional_logit(y, X)
        ybar = y.mean()
        qll_null = n * (ybar * math.log(ybar) + (1 - ybar) * math.log(1 - ybar))
        assert mcfadden_pseudo_r2(fit, y) == pytest.approx(
            1.0 - fit.qll / qll_null, abs=1e-9)

    def test_null_model_scores_zero(self):
        y = np.clip(np.random.default_rng(8).random(50), 0.01, 0.99)
        fit = fit_fractional_logit(y, np.ones((50, 1)))
        assert mcfadden_pseudo_r2(fit, y) == 0.0

    @pytest.mark.parametrize("n", [200, 20_000])
    def test_matches_newton_null_fit(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0, 1, n)
        y = np.clip(1 / (1 + np.exp(-0.4 * x)) + rng.normal(0, 0.1, n), 0, 1)
        fit = fit_fractional_logit(y, np.column_stack([np.ones(n), x]))
        null_fit = fit_fractional_logit(y, np.ones((n, 1)))  # independent oracle
        assert mcfadden_pseudo_r2(fit, y) == pytest.approx(
            1.0 - fit.qll / null_fit.qll, rel=1e-12)

    def test_degenerate_null_rejected(self):
        fit = fit_fractional_logit(np.full(10, 0.5), np.ones((10, 1)))
        with pytest.raises(ValueError, match="degenerate null"):
            mcfadden_pseudo_r2(fit, np.zeros(10))

    def test_bounded_below_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 150)
        y = np.clip(1 / (1 + np.exp(-2 * x)) + rng.normal(0, 0.02, 150), 0, 1)
        fit = fit_fractional_logit(y, np.column_stack([np.ones(150), x]))
        assert 0.0 < mcfadden_pseudo_r2(fit, y) < 1.0


class TestCollinearity:
    def test_exact_duplicate_dropped_later_first(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, 50)
        X = np.column_stack([np.ones(50), x, x])
        report = collinearity_check(X, ("Intercept", "A", "B"))
        assert report.dropped == ("B",)
        assert report.columns == ("Intercept", "A")

    def test_scaled_copy_dropped(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 50)
        X = np.column_stack([np.ones(50), x, 2.0 * x + 0.0])
        report = collinearity_check(X, ("Intercept", "A", "B"))
        assert report.dropped == ("B",)

    def test_near_collinear_dropped_by_vif(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, 500)
        x2 = x + rng.normal(0, 0.01, 500)  # VIF in the thousands
        X = np.column_stack([np.ones(500), x, x2])
        report = collinearity_check(X, ("Intercept", "A", "B"))
        assert report.dropped == ("B",)
        assert report.vifs["A"] < 10.0

    def test_exempt_columns_survive_high_vif(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(40, 70, 400)
        X = np.column_stack([np.ones(400), a, a ** 2])  # uncentered: huge VIF
        report = collinearity_check(X, ("Intercept", "Age", "Age^2"),
                                    vif_exempt=AGE_TERMS)
        assert report.dropped == ()
        assert report.vifs["Age"] > 10.0

    def test_intercept_never_vif_dropped(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, 100)
        X = np.column_stack([np.ones(100), x])
        report = collinearity_check(X, ("Intercept", "A"))
        assert "Intercept" in report.columns
        assert "Intercept" not in report.vifs

    def test_vif_values_match_ols_oracle(self):
        rng = np.random.default_rng(15)
        x1 = rng.normal(0, 1, 300)
        x2 = 0.6 * x1 + rng.normal(0, 1, 300)
        X = np.column_stack([np.ones(300), x1, x2])
        report = collinearity_check(X, ("Intercept", "A", "B"))
        for j, name in ((1, "A"), (2, "B")):
            others = np.delete(X, j, axis=1)
            coef, *_ = np.linalg.lstsq(others, X[:, j], rcond=None)
            resid = X[:, j] - others @ coef
            centered = X[:, j] - X[:, j].mean()
            r2 = 1.0 - resid @ resid / (centered @ centered)
            assert report.vifs[name] == pytest.approx(1.0 / (1.0 - r2), rel=1e-9)

    def test_name_count_must_match(self):
        with pytest.raises(ValueError, match="one name per column"):
            collinearity_check(np.ones((5, 2)), ("only",))

    @staticmethod
    def planted_design(rng, n):
        """Independent columns of mixed scales, with a duplicate, a linear
        combination, a zero and a constant column planted at random places."""
        cols = [rng.normal(0, 1, n), rng.uniform(40, 70, n) ** 3,
                (rng.random(n) < 0.3).astype(float), rng.normal(5, 1e-3, n)]
        cols = cols[:rng.integers(1, len(cols) + 1)]
        if rng.random() < 0.8:
            cols.insert(0, np.ones(n))
        picks = rng.integers(0, len(cols), size=3)
        faults = [cols[picks[0]].copy(),
                  rng.normal() * cols[picks[1]] + rng.normal() * cols[picks[2]],
                  np.zeros(n), np.full(n, rng.normal())]
        for fault in faults:
            cols.insert(int(rng.integers(0, len(cols) + 1)), fault)
        return np.column_stack(cols)

    @pytest.mark.parametrize("n", [3, 4, 6, 12, 50, 1000, 20_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_dependence_matches_rank_oracle(self, n, seed):
        X = self.planted_design(np.random.default_rng(1000 * seed + n), n)
        kept, dropped = exact_dependence(X)
        assert dropped  # the zero column at least
        names = tuple(f"c{j}" for j in range(X.shape[1]))
        report = collinearity_check(X, names, threshold=np.inf)  # exact pass only
        assert report.columns == tuple(names[j] for j in kept)
        assert report.dropped == tuple(names[j] for j in dropped)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert spec.dependent == "FSS" and spec.age_degree == 1

    @pytest.mark.parametrize("kwargs", [
        {"age_degree": 0}, {"age_degree": 4}, {"dependent": "H"},
        {"covariates": ("Seniority", "Bogus")},
        {"covariates": ("Seniority", "Seniority")}, {"max_seniority": math.nan},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_from_mapping_seniority_cap(self):
        spec = ModelSpec.from_mapping({"dependent": "P", "max_seniority": 8})
        assert spec.dependent == "P"
        assert spec.max_seniority == 8.0
        frame = make_frame([("a", "MAT", 50.0, 7.9, 1, 0, 0, 0, {"P": 10.0}),
                            ("b", "MAT", 51.0, 8.0, 1, 0, 0, 0, {"P": 20.0}),
                            ("c", "MAT", 52.0, 2.0, 0, 0, 0, 0, {"P": 30.0})])
        assert list(build_design(frame, spec).row_ids) == ["a", "c"]

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown model spec keys"):
            ModelSpec.from_mapping({"dependent": "FSS", "weighting": "none"})


class TestBuildDesign:
    def test_layout_and_centering(self):
        rng = np.random.default_rng(16)
        frame = synth_frame(rng, n=50)
        design = build_design(frame, ModelSpec(age_degree=2))
        assert design.columns[:3] == ("Intercept", "Age", "Age^2")
        ages = frame.age
        assert design.age_mean == pytest.approx(ages.mean())
        i_age = design.column_index("Age")
        assert np.allclose(design.X[:, i_age], ages - ages.mean())
        assert np.allclose(design.X[:, i_age + 1], (ages - ages.mean()) ** 2)
        assert np.allclose(design.y, frame.percentiles[:, INDICATORS.index("FSS")] / 100)
        assert list(design.row_ids) == list(frame.ids)

    def test_subset_filter_and_missing_dependent(self):
        rng = np.random.default_rng(17)
        frame = synth_frame(rng, n=60)
        frame.percentiles[5] = np.nan  # R5 is not ranked
        spec = ModelSpec(max_seniority=20.0)
        design = build_design(frame, spec)
        assert "R5" not in design.row_ids
        included = np.isin(frame.ids, design.row_ids)
        assert np.all(frame.covariates[included, 0] < 20.0)
        assert len(design.row_ids) < len(frame.ids)

    def test_constant_gender_column_pruned(self):
        rng = np.random.default_rng(18)
        rows = [(f"r{i}", "MAT", float(rng.uniform(40, 70)),
                 float(rng.uniform(1, 30)), 1, 0, 0, 0,
                 {"FSS": float(rng.uniform(5, 95))})
                for i in range(40)]
        design = build_design(make_frame(rows), ModelSpec())
        assert "Gender" in design.dropped
        assert "U1" in design.dropped  # all-zero dummy duplicates nothing to fit
        assert "Gender" not in design.columns

    def test_empty_design_rejected(self):
        rng = np.random.default_rng(19)
        frame = synth_frame(rng, n=10)
        with pytest.raises(FitError, match="empty design"):
            build_design(frame, ModelSpec(max_seniority=0.0))

    def test_constant_dependent_rejected(self):
        rows = [(f"r{i}", "MAT", 40.0 + i, 5.0, i % 2, 0, 0, 0, {"FSS": 50.0})
                for i in range(20)]
        with pytest.raises(FitError, match="constant"):
            build_design(make_frame(rows), ModelSpec())

    def test_unknown_column_lookup_rejected(self):
        rng = np.random.default_rng(20)
        design = build_design(synth_frame(rng, n=30), ModelSpec())
        with pytest.raises(ValueError, match="unknown design column"):
            design.column_index("Banana")


class TestDegreeSelection:
    def test_tie_prefers_lower_degree(self):
        rng = np.random.default_rng(21)
        n = 80
        x = rng.normal(0, 1, n)
        y = np.clip(0.5 + 0.2 * np.tanh(x) + rng.normal(0, 0.05, n), 0, 1)
        X = np.column_stack([np.ones(n), x])
        assert select_age_degree(lambda degree: (y, X)) == 1

    def test_quadratic_truth_selected(self):
        rng = np.random.default_rng(22)
        n = 800
        a = rng.uniform(-15, 15, n)
        g = 1 / (1 + np.exp(-(0.3 - 0.012 * a ** 2 + 0.01 * a)))
        phi = 9.0
        y = rng.beta(g * phi, (1 - g) * phi)

        def builder(degree):
            X = np.column_stack([np.ones(n)] + [a ** d for d in range(1, degree + 1)])
            return y, X

        assert select_age_degree(builder) == 2

    def test_linear_truth_selected(self):
        rng = np.random.default_rng(23)
        n = 800
        a = rng.uniform(-15, 15, n)
        g = 1 / (1 + np.exp(-(0.2 + 0.05 * a)))
        phi = 9.0
        y = rng.beta(g * phi, (1 - g) * phi)

        def builder(degree):
            X = np.column_stack([np.ones(n)] + [a ** d for d in range(1, degree + 1)])
            return y, X

        assert select_age_degree(builder) == 1

    def test_failing_degrees_skipped(self):
        rng = np.random.default_rng(24)
        n = 60
        x = rng.normal(0, 1, n)
        y = np.clip(0.4 + 0.1 * x + rng.normal(0, 0.05, n), 0, 1)

        def builder(degree):
            if degree == 1:
                raise FitError("rigged")
            return y, np.column_stack([np.ones(n)] + [x ** d for d in range(1, degree + 1)])

        assert select_age_degree(builder) in (2, 3)

    def test_all_degrees_failing_raises(self):
        def builder(degree):
            raise FitError("rigged")
        with pytest.raises(FitError, match="all candidate degrees failed"):
            select_age_degree(builder)

    def test_all_failed_message_names_the_error(self):
        y = np.full(30, 0.4)
        y[3] = np.nan
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        with pytest.raises(FitError, match="all candidate degrees failed: "
                                           "responses and design must be finite"):
            select_age_degree(lambda degree: (y, X))

    def test_max_degree_validated(self):
        with pytest.raises(ValueError, match="max_degree"):
            select_age_degree(lambda d: (None, None), max_degree=5)


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
    return 100.0 * float(((g(eta + h * beta[idx]) - g(eta - h * beta[idx])) / (2 * h)).mean())


def discrete_contrast(beta, design, name):
    idx = design.columns.index(name)
    hi = design.X.copy()
    lo = design.X.copy()
    hi[:, idx] = 1.0
    lo[:, idx] = 0.0
    g = lambda e: 1 / (1 + np.exp(-e))
    return 100.0 * float((g(hi @ beta) - g(lo @ beta)).mean())


class TestMarginalEffects:
    def fitted_design(self, seed, degree):
        rng = np.random.default_rng(seed)
        frame = synth_frame(rng, n=250, b_age2=-0.002 if degree > 1 else 0.0)
        design = build_design(frame, ModelSpec(age_degree=degree))
        fit = fit_fractional_logit(design.y, design.X)
        return fit.beta, design

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_age_ame_matches_finite_difference(self, degree):
        beta, design = self.fitted_design(30 + degree, degree)
        ames = average_marginal_effects(beta, design)
        assert ames["Age"] == pytest.approx(fd_age_ame(beta, design), abs=1e-6)

    def test_continuous_ame_matches_finite_difference(self):
        beta, design = self.fitted_design(40, 1)
        ames = average_marginal_effects(beta, design)
        assert ames["Seniority"] == pytest.approx(
            fd_continuous_ame(beta, design, "Seniority"), abs=1e-6)

    def test_dummy_ame_is_discrete_contrast(self):
        beta, design = self.fitted_design(41, 1)
        ames = average_marginal_effects(beta, design)
        for name in ("Gender", "U1", "U2", "U3"):
            if name in design.columns:
                assert ames[name] == pytest.approx(
                    discrete_contrast(beta, design, name), abs=1e-10)

    def test_continuous_ame_closed_form(self):
        beta, design = self.fitted_design(42, 1)
        eta = design.X @ beta
        g = 1 / (1 + np.exp(-eta))
        dens_mean = float((g * (1 - g)).mean())
        idx = design.column_index("Seniority")
        ames = average_marginal_effects(beta, design)
        assert ames["Seniority"] == pytest.approx(100.0 * dens_mean * beta[idx],
                                                  rel=1e-12)

    def test_variable_subset_and_unknown_name(self):
        beta, design = self.fitted_design(43, 2)
        only_age = average_marginal_effects(beta, design, variables=("Age",))
        assert set(only_age) == {"Age"}
        with pytest.raises(ValueError, match="unknown variable"):
            average_marginal_effects(beta, design, variables=("Banana",))

    def test_no_intercept_effect(self):
        beta, design = self.fitted_design(44, 1)
        assert "Intercept" not in average_marginal_effects(beta, design)


class TestFitModel:
    def test_reporting_scale_and_back_transform(self):
        rng = np.random.default_rng(50)
        frame = synth_frame(rng, n=350, b_age2=-0.003)
        spec = ModelSpec(age_degree=2)
        result = fit_model(frame, spec)
        design = build_design(frame, spec)
        core = fit_fractional_logit(design.y, design.X)

        # raw-scale coefficients must reproduce the centered linear predictor
        eta_centered = design.X @ core.beta
        ages = design.X[:, design.column_index("Age")] + design.age_mean
        eta_raw = np.full(len(ages), result.coefficients["Intercept"] / 100.0)
        for j, name in enumerate(AGE_TERMS[:2], start=1):
            eta_raw += result.coefficients[name] / 100.0 * ages ** j
        for name in result.terms:
            if name in ("Intercept",) + AGE_TERMS:
                continue
            eta_raw += result.coefficients[name] / 100.0 * design.X[:, design.column_index(name)]
        assert np.abs(eta_raw - eta_centered).max() < 1e-8

    def test_raw_fit_agrees_with_back_transform(self):
        rng = np.random.default_rng(51)
        frame = synth_frame(rng, n=300, b_age2=-0.002)
        result = fit_model(frame, ModelSpec(age_degree=2))
        design = build_design(frame, ModelSpec(age_degree=2))
        ages = design.X[:, 1] + design.age_mean
        X_raw = design.X.copy()
        X_raw[:, 1] = ages
        X_raw[:, 2] = ages ** 2
        raw = fit_fractional_logit(design.y, X_raw)
        for i, name in enumerate(design.columns):
            assert result.coefficients[name] == pytest.approx(
                100.0 * raw.beta[i], rel=1e-4, abs=1e-5)
            assert result.robust_se[name] == pytest.approx(
                100.0 * math.sqrt(raw.cov_robust[i, i]), rel=1e-3)

    def test_result_bookkeeping(self):
        rng = np.random.default_rng(52)
        frame = synth_frame(rng, n=200)
        result = fit_model(frame, ModelSpec())
        assert result.converged
        assert result.n == 200
        assert result.terms[0] == "Intercept"
        assert set(result.coefficients) == set(result.terms)
        assert set(result.robust_se) == set(result.terms)
        assert set(result.ame) == set(result.terms) - {"Intercept"}
        assert 0.0 <= result.pseudo_r2 < 1.0
        assert result.aic == pytest.approx(2 * len(result.terms) - 2 * result.qll)
        assert result.dependent == "FSS"
        assert all(v >= 1.0 for v in result.vifs.values())

    def test_selected_degree_fit(self):
        rng = np.random.default_rng(53)
        frame = synth_frame(rng, n=700, b_age2=-0.004, noise=0.05)
        result = fit_with_selected_degree(frame, ModelSpec(), max_degree=3)
        assert result.age_degree >= 2
        assert "Age^2" in result.terms

    def test_alternative_dependent(self):
        rng = np.random.default_rng(54)
        frame = synth_frame(rng, n=150)
        percentiles = np.full_like(frame.percentiles, np.nan)
        percentiles[:, INDICATORS.index("IA")] = frame.percentiles[:, INDICATORS.index("FSS")]
        result = fit_model(replace(frame, percentiles=percentiles), ModelSpec(dependent="IA"))
        assert result.dependent == "IA"
        assert result.n == 150

    def test_non_finite_covariate_is_a_fit_error(self):
        frame = synth_frame(np.random.default_rng(55), n=100)
        frame.age[7] = np.nan
        with pytest.raises(FitError, match="age and covariates must be finite"):
            fit_model(frame, ModelSpec())


class TestComputeOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_design": 0, "collinearity_check": 0, "fit_fractional_logit": 0}
        for name in counts:
            original = getattr(resperf.regress, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(resperf.regress, name, counted)
        return counts

    @pytest.mark.parametrize("max_degree", [1, 2, 3])
    def test_selected_degree_builds_once_and_solves_each_degree_once(self, calls,
                                                                     max_degree):
        frame = synth_frame(np.random.default_rng(60), n=300, b_age2=-0.003)
        fit_with_selected_degree(frame, ModelSpec(), max_degree=max_degree)
        assert calls == {"build_design": 1, "collinearity_check": max_degree,
                         "fit_fractional_logit": max_degree}

    def test_fixed_degree_model_solves_once(self, calls):
        fit_model(synth_frame(np.random.default_rng(61), n=200), ModelSpec(age_degree=2))
        assert calls == {"build_design": 1, "collinearity_check": 1,
                         "fit_fractional_logit": 1}

    @pytest.mark.parametrize("seed", [62, 63, 64])
    def test_winner_equals_a_fresh_fit_at_its_degree(self, seed):
        frame = synth_frame(np.random.default_rng(seed), n=400, b_age2=-0.002 * (seed - 62))
        selected = fit_with_selected_degree(frame, ModelSpec(), max_degree=3)
        fresh = fit_model(frame, ModelSpec(age_degree=selected.age_degree))
        assert selected == fresh
