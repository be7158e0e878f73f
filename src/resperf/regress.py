"""Fractional-response logit regression by quasi-maximum likelihood.

The conditional mean of a [0,1] outcome is modeled as E(y|x) = G(x'b) with G
the logistic CDF.  Estimation maximizes the Bernoulli quasi-log-likelihood

    sum_i  y_i log G(x_i'b) + (1 - y_i) log(1 - G(x_i'b))

by damped Newton steps (equivalently iteratively reweighted least squares),
which is consistent for the mean parameters whatever the true conditional
distribution of y.  Inference uses the sandwich covariance (robust to that
distributional agnosticism); the classical inverse-information covariance is
kept alongside for comparison.  The age profile enters as a polynomial whose
degree is chosen by AIC.  Age is mean-centered before powers are taken to
tame collinearity, and coefficients are back-transformed to the raw-age scale
(and onto the 0-100 percentile scale) for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .indicators import INDICATORS

MAX_ITER = 100
GRAD_TOL = 1e-8
# Stall guard; loose enough to stop on a flat objective, tight enough that the
# gradient criterion gets the final Newton step it needs near the optimum.
QLL_REL_TOL = 1e-14
# |x'b| beyond this on an accepted step means the optimizer is chasing a
# supremum that is not attained (quasi-separation).
ETA_BOUND = 30.0
VIF_THRESHOLD = 10.0

COVARIATE_ORDER = ("Seniority", "Gender", "U1", "U2", "U3")
AGE_TERMS = ("Age", "Age^2", "Age^3")
REPORT_SCALE = 100.0  # coefficients, SEs and AMEs are reported per percentile


class FitError(RuntimeError):
    pass


class QuasiSeparationError(FitError):
    pass


def logistic(eta):
    """Numerically stable logistic CDF."""
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def bernoulli_qll(y, eta) -> float:
    """Quasi-log-likelihood; finite for y at 0 or 1 since G never reaches them."""
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    # log G = -softplus(-eta), log(1-G) = -softplus(eta)
    return float(-(y * np.logaddexp(0.0, -eta)
                   + (1.0 - y) * np.logaddexp(0.0, eta)).sum())


@dataclass
class CoreFit:
    """Raw solver output on the design's own column scale."""
    beta: np.ndarray
    cov_robust: np.ndarray
    cov_classical: np.ndarray
    qll: float
    aic: float
    n: int
    k: int
    n_iter: int
    converged: bool
    grad_norm: float


def fit_fractional_logit(y, X) -> CoreFit:
    """Fit E(y|x) = G(x'b) by damped Newton on the quasi-log-likelihood.

    Converges within MAX_ITER steps when the gradient sup-norm falls below
    GRAD_TOL or the relative quasi-log-likelihood change falls below 1e-14.
    Steps that lower the objective beyond rounding noise are halved.  Raises
    :class:`QuasiSeparationError` when the linear predictor diverges,
    :class:`FitError` on non-finite input, a singular information matrix or
    n <= k.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise FitError("design matrix must be 2-D")
    n, k = X.shape
    if y.shape != (n,):
        raise FitError(f"y has shape {y.shape}, expected ({n},)")
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise FitError("responses and design must be finite")
    if np.any((y < 0) | (y > 1)):
        raise FitError("responses must lie in [0, 1]")
    if n <= k:
        raise FitError(f"need more observations than terms (n={n}, k={k})")

    beta = np.zeros(k)
    eta = X @ beta
    qll = bernoulli_qll(y, eta)
    converged = False
    steps = 0
    for _ in range(MAX_ITER):
        g_fit = logistic(eta)
        grad = X.T @ (y - g_fit)
        if float(np.abs(grad).max()) < GRAD_TOL:
            converged = True
            break
        w = g_fit * (1.0 - g_fit)
        info = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular information matrix; prune the design first") from exc

        # Near the optimum the true ascent per step falls below the floating
        # resolution of the objective; the slack keeps the line search from
        # rejecting the final gradient-polishing step.
        slack = 32.0 * np.finfo(float).eps * (abs(qll) + 1.0)
        scale = 1.0
        accepted = False
        for _ in range(50):
            cand = beta + scale * step
            eta_cand = X @ cand
            qll_cand = bernoulli_qll(y, eta_cand)
            if qll_cand >= qll - slack:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break  # no ascent possible at floating precision
        rel_change = abs(qll_cand - qll) / (abs(qll) + 1.0)
        beta, eta, qll = cand, eta_cand, qll_cand
        steps += 1
        if float(np.abs(eta).max()) > ETA_BOUND:
            raise QuasiSeparationError(
                f"diverging coefficients: |x'b| reached {float(np.abs(eta).max()):.1f}")
        if rel_change < QLL_REL_TOL:
            converged = True
            break

    g_fit = logistic(eta)
    grad_norm = float(np.abs(X.T @ (y - g_fit)).max())
    if not converged and grad_norm < GRAD_TOL:
        converged = True
    w = g_fit * (1.0 - g_fit)
    resid = y - g_fit
    info = X.T @ (X * w[:, None])
    try:
        bread = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular information matrix at the solution") from exc
    meat = X.T @ (X * (resid ** 2)[:, None])
    cov_robust = bread @ meat @ bread
    aic = 2.0 * k - 2.0 * qll
    return CoreFit(beta=beta, cov_robust=cov_robust, cov_classical=bread,
                   qll=qll, aic=aic, n=n, k=k, n_iter=steps,
                   converged=converged, grad_norm=grad_norm)


def mcfadden_pseudo_r2(fit: CoreFit, y) -> float:
    """1 - qll_model / qll_null; the intercept-only null fit on the same y has
    the closed form qll_null = n * [ybar log ybar + (1 - ybar) log(1 - ybar)]."""
    y = np.asarray(y, dtype=float)
    ybar = float(y.mean())
    if not 0.0 < ybar < 1.0:
        raise ValueError("degenerate null model: quasi-log-likelihood is zero")
    null_qll = y.shape[0] * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    r2 = 1.0 - fit.qll / null_qll
    return max(0.0, r2)  # the model nests the null; clamp convergence slack


@dataclass
class CollinearityReport:
    X: np.ndarray
    columns: tuple[str, ...]
    dropped: tuple[str, ...]
    vifs: dict[str, float]


def collinearity_check(X, columns: Sequence[str],
                       vif_exempt: Sequence[str] = ()) -> CollinearityReport:
    """Prune a design matrix whose columns are named ``columns``.

    Exactly dependent columns go first (the later-listed duplicate is the one
    removed); then columns with VIF above VIF_THRESHOLD are removed one at a
    time, later-listed first.  Columns in ``vif_exempt`` (and any intercept)
    are never removed for high VIF, only for exact dependence.  VIFs, taken
    with an intercept in each auxiliary regression, are reported for the
    retained non-constant columns.
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    columns = tuple(columns)
    if len(columns) != k:
        raise ValueError("one name per column required")
    exempt = set(vif_exempt) | {"Intercept"}

    # Greedy exact-dependence pass.  X[:, S] and R[:, S] share their singular
    # values, so each trial is ranked on R with matrix_rank's tolerance for
    # the n-row trial on X.
    R = np.linalg.qr(X, mode="r")
    eps = np.finfo(float).eps
    kept: list[int] = []
    dropped: list[str] = []
    for j in range(k):
        trial = kept + [j]
        sv = np.linalg.svd(R[:, trial], compute_uv=False)
        if np.count_nonzero(sv > sv.max(initial=0.0) * max(n, len(trial)) * eps) == len(trial):
            kept.append(j)
        else:
            dropped.append(columns[j])

    varies = (X != X[:1]).any(axis=0)
    while True:
        # VIFs: the diagonal of the inverse correlation matrix of the kept
        # non-constant columns (Belsley, Kuh & Welsch 1980).
        cols = [i for i in kept if varies[i]]
        Z = X[:, cols] - X[:, cols].mean(axis=0)
        Z /= np.linalg.norm(Z, axis=0)
        vifs = dict(zip(cols, np.diag(np.linalg.inv(Z.T @ Z)).tolist()))
        offenders = [i for i in cols if columns[i] not in exempt and vifs[i] > VIF_THRESHOLD]
        if not offenders:
            break
        worst = max(offenders)  # later-listed first
        kept.remove(worst)
        dropped.append(columns[worst])

    return CollinearityReport(X=X[:, kept],
                              columns=tuple(columns[i] for i in kept),
                              dropped=tuple(dropped),
                              vifs={columns[i]: v for i, v in vifs.items()})


@dataclass(frozen=True)
class RegressionFrame:
    """Regression inputs as columns, one row per professor.

    ``covariates`` is (n, 5) in ``COVARIATE_ORDER``; ``percentiles`` is
    (n, 4) in ``INDICATORS`` order on the 0-100 scale, NaN where the
    professor is not ranked on that indicator.
    """
    uda: np.ndarray
    age: np.ndarray
    covariates: np.ndarray
    percentiles: np.ndarray

    def subset(self, mask: np.ndarray) -> "RegressionFrame":
        return RegressionFrame(self.uda[mask], self.age[mask],
                               self.covariates[mask], self.percentiles[mask])


@dataclass(frozen=True)
class ModelSpec:
    dependent: str = "FSS"
    covariates: tuple[str, ...] = COVARIATE_ORDER
    max_seniority: float | None = None  # keep rows with seniority strictly below

    def __post_init__(self):
        if self.dependent not in INDICATORS:
            raise ValueError(f"unknown dependent indicator {self.dependent!r}")
        unknown = [c for c in self.covariates if c not in COVARIATE_ORDER]
        if unknown:
            raise ValueError(f"unknown covariates: {', '.join(unknown)}")
        if len(set(self.covariates)) != len(self.covariates):
            raise ValueError("covariates must be distinct")
        if self.max_seniority is not None and math.isnan(self.max_seniority):
            raise ValueError("max_seniority must be a number, got nan")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ModelSpec":
        """Key-value form: dependent, covariates, max_seniority, each of its
        JSON type; null = default."""
        kinds = {"dependent": (str, "a string"),
                 "covariates": ((list, tuple), "a list of strings"),
                 "max_seniority": ((int, float), "a number")}
        extra = set(data) - set(kinds)
        if extra:
            raise ValueError(f"unknown model spec keys: {', '.join(sorted(extra))}")
        values = {key: value for key, value in data.items() if value is not None}
        for key, value in values.items():
            kind, wanted = kinds[key]
            if isinstance(value, bool) or not isinstance(value, kind) or (
                    key == "covariates" and not all(isinstance(c, str) for c in value)):
                raise ValueError(f"{key} must be {wanted}, got {value!r}")
        casts = {"covariates": tuple, "max_seniority": float}
        return cls(**{k: casts[k](v) if k in casts else v for k, v in values.items()})


@dataclass
class Design:
    """Pruned design matrix on the centered-age scale, plus the columns as built."""
    y: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]
    age_degree: int
    age_mean: float
    dropped: tuple[str, ...]
    vifs: dict[str, float]
    unpruned_X: np.ndarray
    unpruned_columns: tuple[str, ...]

    def at_degree(self, degree: int) -> "Design":
        """The same sample with age powers up to ``degree`` (<= age_degree), pruned afresh."""
        if degree == self.age_degree:
            return self
        keep = [i for i, name in enumerate(self.unpruned_columns)
                if name not in AGE_TERMS[degree:]]
        return _pruned(self.y, self.unpruned_X[:, keep],
                       tuple(self.unpruned_columns[i] for i in keep),
                       degree, self.age_mean)


def _pruned(y, X, columns, age_degree, age_mean) -> Design:
    report = collinearity_check(X, columns, vif_exempt=AGE_TERMS)
    return Design(y=y, X=report.X, columns=report.columns,
                  age_degree=age_degree, age_mean=age_mean,
                  dropped=report.dropped, vifs=report.vifs,
                  unpruned_X=X, unpruned_columns=columns)


def build_design(frame: RegressionFrame, spec: ModelSpec, age_degree: int) -> Design:
    """Assemble y and X for a model spec, with age powers up to ``age_degree``.

    Rows not ranked on the dependent indicator (NaN percentile) are
    excluded, as are rows at or above ``spec.max_seniority``.  Age is
    centered on the included sample's mean before powers are taken; exact
    duplicates and high-VIF columns are pruned (age powers are VIF-exempt).
    """
    if not 1 <= age_degree <= 3:
        raise ValueError(f"age_degree must be 1..3, got {age_degree}")
    y = frame.percentiles[:, INDICATORS.index(spec.dependent)] / 100.0
    rows = ~np.isnan(y)
    if spec.max_seniority is not None:
        rows &= frame.covariates[:, COVARIATE_ORDER.index("Seniority")] < spec.max_seniority
    if not rows.any():
        raise FitError("empty design: no usable observations")
    y = y[rows]
    if np.all(y == y[0]):
        raise FitError("dependent variable is constant")

    ages = frame.age[rows]
    age_mean = float(ages.mean())
    centered = ages - age_mean
    covariates = frame.covariates[rows][:, [COVARIATE_ORDER.index(c) for c in spec.covariates]]
    X = np.column_stack([np.ones(len(y))]
                        + [centered ** degree for degree in range(1, age_degree + 1)]
                        + [covariates])
    if not np.isfinite(X).all():
        raise FitError("age and covariates must be finite")
    columns = ("Intercept",) + AGE_TERMS[:age_degree] + tuple(spec.covariates)
    return _pruned(y, X, columns, age_degree, age_mean)


def _min_aic(fit_degree: Callable[[int], tuple[CoreFit, object]],
             max_degree: int) -> tuple[int, CoreFit, object]:
    """(degree, fit, payload) for the ``fit_degree(degree)`` of least AIC; ties
    go to the lower degree.

    Degrees whose fit raises :class:`FitError` are skipped; if every degree
    fails, the last degree's error is raised through :func:`_all_failed`.
    """
    if not 1 <= max_degree <= 3:
        raise ValueError(f"max_degree must be 1..3, got {max_degree}")
    best, best_aic, last_error = None, math.inf, None
    for degree in range(1, max_degree + 1):
        try:
            fit, payload = fit_degree(degree)
        except FitError as exc:
            last_error = exc
            continue
        if fit.aic < best_aic:
            best, best_aic = (degree, fit, payload), fit.aic
    if best is None:
        raise _all_failed(last_error)
    return best


def _all_failed(exc: FitError) -> FitError:
    """The error that stopped the last fit, of its class, with "all candidate
    degrees failed: " before its message."""
    return type(exc)(f"all candidate degrees failed: {exc}")


def average_marginal_effects(beta: np.ndarray, design: Design) -> dict[str, float]:
    """Average marginal effects on the percentile (x100) scale.

    Continuous variables use the analytic derivative averaged over the
    sample; the age polynomial is pooled into a single effect
    mean_i g(eta_i) * sum_j j*b_j*a_i^(j-1).  Columns holding only 0/1 values
    are treated as dummies: mean of G(eta | v=1) - G(eta | v=0).
    """
    beta = np.asarray(beta, dtype=float)
    X = design.X
    eta = X @ beta
    g = logistic(eta)
    dens = g * (1.0 - g)

    age_cols = [(j + 1, design.columns.index(name))
                for j, name in enumerate(AGE_TERMS) if name in design.columns]

    out: dict[str, float] = {}
    if age_cols:
        a = X[:, age_cols[0][1]]  # centered age values
        deriv = np.zeros_like(a)
        for power, col in age_cols:
            deriv += power * beta[col] * a ** (power - 1)
        out["Age"] = REPORT_SCALE * float((dens * deriv).mean())

    for idx, name in enumerate(design.columns):
        if name == "Intercept" or name in AGE_TERMS:
            continue
        col = X[:, idx]
        if np.isin(col, (0.0, 1.0)).all():
            eta_hi = eta + (1.0 - col) * beta[idx]
            eta_lo = eta - col * beta[idx]
            out[name] = REPORT_SCALE * float((logistic(eta_hi) - logistic(eta_lo)).mean())
        else:
            out[name] = REPORT_SCALE * float(dens.mean() * beta[idx])
    return out


def _raw_age_transform(columns: Sequence[str], age_mean: float) -> np.ndarray:
    """Linear map T with beta_raw = T @ beta_centered.

    Expands (age - m)^j into raw-age powers; non-age terms pass through.
    Every design keeps its Intercept: the exact-dependence pass keeps the
    first column, and no VIF removes it.
    """
    T = np.eye(len(columns))
    i_int = columns.index("Intercept")
    m = age_mean
    for j, name in enumerate(AGE_TERMS, start=1):
        if name not in columns:
            continue
        src = columns.index(name)
        T[i_int, src] = (-m) ** j
        for i in range(1, j + 1):
            dst = columns.index(AGE_TERMS[i - 1])
            T[dst, src] = math.comb(j, i) * (-m) ** (j - i)
    return T


@dataclass
class FitResult:
    """One fitted model, on the reporting scale.

    Coefficients and standard errors are back-transformed to raw-age powers
    and multiplied by 100 so a unit step moves the expected percentile, like
    the AMEs.  ``qll``/``aic`` stay on the estimation scale.
    """
    dependent: str = "FSS"
    terms: tuple[str, ...] = ()
    coefficients: dict[str, float] = field(default_factory=dict)
    robust_se: dict[str, float] = field(default_factory=dict)
    classical_se: dict[str, float] = field(default_factory=dict)
    ame: dict[str, float] = field(default_factory=dict)
    aic: float = math.nan
    pseudo_r2: float = math.nan
    qll: float = math.nan
    n: int = 0
    converged: bool = True
    dropped_terms: tuple[str, ...] = ()
    age_degree: int = 1
    age_mean: float = math.nan
    vifs: dict[str, float] = field(default_factory=dict)
    n_iter: int = 0


def _fit_result(dependent: str, design: Design, core: CoreFit) -> FitResult:
    """Reporting output of a solved design."""
    ames = average_marginal_effects(core.beta, design)
    pseudo = mcfadden_pseudo_r2(core, design.y)

    T = _raw_age_transform(design.columns, design.age_mean)
    beta_raw = T @ core.beta
    se_raw, se_raw_classical = (np.sqrt(np.clip(np.diag(T @ cov @ T.T), 0.0, None))
                                for cov in (core.cov_robust, core.cov_classical))

    s = REPORT_SCALE
    return FitResult(
        dependent=dependent,
        terms=design.columns,
        coefficients={c: s * float(b) for c, b in zip(design.columns, beta_raw)},
        robust_se={c: s * float(v) for c, v in zip(design.columns, se_raw)},
        classical_se={c: s * float(v) for c, v in zip(design.columns, se_raw_classical)},
        ame=ames,
        aic=core.aic,
        pseudo_r2=pseudo,
        qll=core.qll,
        n=core.n,
        converged=core.converged,
        dropped_terms=design.dropped,
        age_degree=design.age_degree,
        age_mean=design.age_mean,
        vifs=design.vifs,
        n_iter=core.n_iter,
    )


def fit_with_selected_degree(frame: RegressionFrame, spec: ModelSpec,
                             max_degree: int = 3) -> FitResult:
    """AIC-select the age degree (1..max_degree) and report the winning fit.

    The columns are built once; each degree is a slice of them, fitted once.
    When no degree can be fitted, the :class:`FitError` reads "all candidate
    degrees failed: " and the error that stopped the last fit, and keeps its
    class (a :class:`QuasiSeparationError` stays one).
    """
    try:
        top = build_design(frame, spec, max_degree)
    except FitError as exc:  # no degree can be fitted on this sample
        raise _all_failed(exc) from exc

    def fit_degree(degree: int):
        design = top.at_degree(degree)
        return fit_fractional_logit(design.y, design.X), design

    _, core, design = _min_aic(fit_degree, max_degree)
    return _fit_result(spec.dependent, design, core)
