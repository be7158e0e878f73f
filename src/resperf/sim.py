"""Synthetic cohort generation with known ground-truth effects.

A cohort of professors is drawn with a realistic age pyramid (about half a
percent under 41, a third over 65, 13 percent over 70), seniority coupled to
age through a Beta-thinned share of the post-26 career (the thinning
concentration is solved analytically from the requested age-seniority
correlation), and a latent yearly publication rate

    lambda_i = exp(b0 + b_age*age_i + b_sen*seniority_i + b_gender*male_i).

Publication counts are Poisson(lambda_i * t); citations are overdispersed
through a Poisson-gamma mixture per (year, category) cell; bylines carry the
focal professor at a random position among synthetic co-authors so the
position-weighted credit rules bite.  Everything is driven by one seeded
generator: the same config yields byte-identical rosters and corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from datetime import date

import numpy as np

from .corpus import (DAYS_PER_YEAR, UNIVERSITY_TYPES, Corpus, NameSequence, Roster,
                     derive_covariates, empty_corpus, json_number, read_json_object)
from .credit import ALPHABETICAL, CONVENTIONS, POSITION_WEIGHTED, ConventionMap
from .pipeline import regression_frame, run_scoring
from .regress import FitError, ModelSpec, fit_with_selected_degree

# (low, high, share): completed-years age runs from a census-date pyramid
# (about 0.5% under 41, under 12% below 51, a third over 65, 13% over 70).
AGE_BRACKETS = (
    (36, 40, 0.005),
    (41, 50, 0.110),
    (51, 55, 0.155),
    (56, 60, 0.200),
    (61, 64, 0.195),
    (65, 69, 0.205),
    (70, 75, 0.130),
)

MIN_CAREER_START_AGE = 26.0

UNIVERSITY_POOLS = (("public", "PUB", 10), ("private", "PRI", 3),
                    ("polytechnic", "POL", 3), ("advanced_school", "ADV", 2))
# each pool's corpus.UNIVERSITY_TYPES code
_POOL_TYPES = np.array([UNIVERSITY_TYPES.index(name) for name, _, _ in UNIVERSITY_POOLS])

# Mean byline length by credit convention of the professor's field.
BYLINE_MEAN = {POSITION_WEIGHTED: 5.0, ALPHABETICAL: 3.0}
SAME_UNIVERSITY_SHARE = 0.45
EXTERNAL_UNIVERSITIES = 12

# Name of the k-th publication, k counted from 1.
PUBLICATION_ID = "W{:07d}"


@dataclass(frozen=True)
class FieldSpec:
    sds: str
    uda: str
    convention: str


DEFAULT_FIELDS = (
    FieldSpec("MED/01", "MED", POSITION_WEIGHTED),
    FieldSpec("BIO/01", "BIO", POSITION_WEIGHTED),
    FieldSpec("AGR/01", "AVS", POSITION_WEIGHTED),
    FieldSpec("MAT/01", "MAT", ALPHABETICAL),
    FieldSpec("FIS/01", "PHY", ALPHABETICAL),
    FieldSpec("ING-IND/01", "IIE", ALPHABETICAL),
)


def _field_spec(item) -> FieldSpec:
    """A FieldSpec from an [sds, uda, convention] list or an object with those keys."""
    parts = [item.get(k) for k in ("sds", "uda", "convention")] if isinstance(item, dict) \
        else item
    if not (isinstance(parts, list) and len(parts) == 3
            and all(isinstance(v, str) for v in parts)):
        raise ValueError(f"each field needs a string sds, uda and convention, got {item!r}")
    return FieldSpec(*parts)


@dataclass(frozen=True)
class SimConfig:
    n_professors: int = 2000
    fields: tuple[FieldSpec, ...] = DEFAULT_FIELDS
    true_age_effect: float = -0.02
    true_seniority_effect: float = 0.015
    true_gender_effect: float = 0.10
    base_log_rate: float = 1.05
    age_seniority_corr_target: float = 0.7
    citation_dispersion: float = 1.0
    # Variance of the mean-1 multiplicative noise on individual rates;
    # 0 disables it.  Drives the inactive share and keeps fits honest.
    latent_heterogeneity: float = 0.7
    window: tuple[int, int] = (2006, 2010)
    seed: int = 20060101
    gender_male_share: float = 0.8
    mean_appointment_age: float = 45.8
    university_type_shares: tuple[float, float, float, float] = (0.90, 0.04, 0.04, 0.02)

    def __post_init__(self):
        if self.n_professors < 0:
            raise ValueError("n_professors must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.fields:
            raise ValueError("at least one field is required")
        for f in self.fields:
            if f.convention not in CONVENTIONS:
                raise ValueError(f"field {f.sds}: unknown convention {f.convention!r}")
        if not -1.0 < self.age_seniority_corr_target < 1.0:
            raise ValueError("age-seniority correlation target must lie in (-1, 1)")
        if self.citation_dispersion <= 0:
            raise ValueError("citation_dispersion must be positive")
        if self.latent_heterogeneity < 0:
            raise ValueError("latent_heterogeneity must be nonnegative")
        if self.window[0] > self.window[1]:
            raise ValueError(f"invalid window {self.window}")
        if not 0.0 <= self.gender_male_share <= 1.0:
            raise ValueError("gender_male_share must lie in [0, 1]")
        if len(self.university_type_shares) != 4 or any(
                s < 0 for s in self.university_type_shares):
            raise ValueError("university_type_shares needs 4 nonnegative entries")
        if abs(sum(self.university_type_shares) - 1.0) > 1e-9:
            raise ValueError("university_type_shares must sum to 1")
        if self.mean_appointment_age <= MIN_CAREER_START_AGE:
            raise ValueError(
                f"mean_appointment_age must exceed {MIN_CAREER_START_AGE}")

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        """Config from a JSON object file: numbers, lists of numbers for the
        tuple fields, and ``fields`` as [sds, uda, convention] lists or
        objects with those keys.  Any problem raises an IngestError."""
        return read_json_object(path, cls._from_json)

    @classmethod
    def _from_json(cls, data: dict) -> "SimConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sim config keys: {', '.join(sorted(unknown))}")
        values = {}
        for key, value in data.items():
            default = cls.__dataclass_fields__[key].default
            if not isinstance(default, tuple):
                values[key] = json_number(value, key, whole=isinstance(default, int))
            elif not isinstance(value, list) or key != "fields" and len(value) != len(default):
                what = "fields" if key == "fields" else f"{len(default)} numbers"
                raise ValueError(f"{key} must be a list of {what}, got {value!r}")
            else:
                values[key] = tuple(_field_spec(v) if key == "fields" else json_number(
                    v, key, whole=isinstance(default[0], int)) for v in value)
        return cls(**values)

    def conventions(self) -> ConventionMap:
        return ConventionMap(overrides={f.sds: f.convention for f in self.fields})


def _sample_ages(rng: np.random.Generator, n: int) -> np.ndarray:
    lows = np.array([b[0] for b in AGE_BRACKETS])
    highs = np.array([b[1] for b in AGE_BRACKETS])
    shares = np.array([b[2] for b in AGE_BRACKETS])
    shares = shares / shares.sum()
    idx = rng.choice(len(AGE_BRACKETS), size=n, p=shares)
    whole = rng.integers(lows[idx], highs[idx] + 1)
    return whole + rng.random(n)


def _seniority_share_params(ages: np.ndarray, corr_target: float,
                            mean_appointment_age: float) -> tuple[float, float]:
    """Beta(mu, s) parameters for the career share spent as full professor.

    seniority = (age - 26) * B with B ~ Beta.  mu follows from the mean
    appointment age; the concentration s is solved so corr(age, seniority)
    hits the target given the sample age moments.  Raises ValueError when the
    target is not achievable with these marginals.
    """
    career = ages - MIN_CAREER_START_AGE
    m_a = float(career.mean())
    var_a = float(career.var())
    if var_a <= 0:
        raise ValueError("degenerate age distribution; correlation target unreachable")
    mu = 1.0 - (mean_appointment_age - MIN_CAREER_START_AGE) / m_a
    if not 0.0 < mu < 1.0:
        raise ValueError(
            f"mean appointment age {mean_appointment_age} incompatible with "
            f"mean career length {m_a + MIN_CAREER_START_AGE:.1f}")
    rho = corr_target
    if rho <= 0.0:
        raise ValueError(
            "infeasible correlation target: seniority grows with age under this "
            "generator, so the target must be positive")
    var_b = mu * mu * var_a * (1.0 - rho * rho) / (rho * rho * (var_a + m_a * m_a))
    if var_b >= mu * (1.0 - mu):
        rho_min = math.sqrt(mu * var_a / ((1.0 - mu) * (var_a + m_a * m_a)))
        raise ValueError(
            f"infeasible correlation target {rho:.3f}: these marginals support "
            f"targets above {rho_min:.3f} only")
    s = mu * (1.0 - mu) / var_b - 1.0
    return mu, min(s, 1e7)


def _roster(config: SimConfig, census: int, ages: np.ndarray, seniority: np.ndarray,
            male: np.ndarray, field_idx: np.ndarray, type_idx: np.ndarray) -> Roster:
    """The roster of drawn professors; dates are rounded to whole days, half to even."""
    birth = census - np.rint(ages * DAYS_PER_YEAR).astype(np.int64)
    appointed = birth + np.rint((ages - seniority) * DAYS_PER_YEAR).astype(np.int64)
    sds_codes: dict[str, int] = {}
    uda_codes: dict[str, int] = {}
    field_sds = np.array([sds_codes.setdefault(f.sds, len(sds_codes)) for f in config.fields])
    field_uda = np.array([uda_codes.setdefault(f.uda, len(uda_codes)) for f in config.fields])
    none = np.zeros(len(ages), dtype=np.int64)
    return Roster(ids=[f"P{i + 1:05d}" for i in range(len(ages))], male=male, birth=birth,
                  appointed=np.minimum(appointed, census), sds=field_sds[field_idx],
                  sds_names=list(sds_codes), uda=field_uda[field_idx],
                  uda_names=list(uda_codes), utype=_POOL_TYPES[type_idx], active_start=none,
                  active_end=none)


def generate_cohort(config: SimConfig) -> tuple[Roster, Corpus]:
    """Draw a roster and matching publication corpus."""
    n = config.n_professors
    start_year, end_year = config.window
    census = date(end_year, 12, 31).toordinal()
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (_roster(config, census, empty, empty, empty, empty, empty),
                empty_corpus())
    rng = np.random.default_rng(config.seed)
    span_years = end_year - start_year + 1

    ages = _sample_ages(rng, n)
    mu, s = _seniority_share_params(ages, config.age_seniority_corr_target,
                                    config.mean_appointment_age)
    share = np.clip(rng.beta(mu * s, (1.0 - mu) * s, size=n), 1e-6, 1.0 - 1e-6)
    seniority = (ages - MIN_CAREER_START_AGE) * share

    male = rng.random(n) < config.gender_male_share
    field_idx = rng.integers(0, len(config.fields), size=n)

    type_idx = rng.choice(len(UNIVERSITY_POOLS), size=n,
                          p=np.asarray(config.university_type_shares))
    pool_sizes = np.array([p[2] for p in UNIVERSITY_POOLS])
    univ_num = rng.integers(0, pool_sizes[type_idx])
    roster = _roster(config, census, ages, seniority, male, field_idx, type_idx)

    # Latent productivity and publication counts.
    log_rate = (config.base_log_rate
                + config.true_age_effect * ages
                + config.true_seniority_effect * seniority
                + config.true_gender_effect * male.astype(float))
    rate = np.exp(log_rate)
    if config.latent_heterogeneity > 0:
        shape = 1.0 / config.latent_heterogeneity
        rate = rate * rng.gamma(shape=shape, scale=1.0 / shape, size=n)
    counts = rng.poisson(rate * span_years)
    total = int(counts.sum())
    if total == 0:
        return roster, empty_corpus()

    owner = np.repeat(np.arange(n), counts)
    years = rng.integers(start_year, end_year + 1, size=total)

    # Per-field citation and impact-factor regimes; normalization must undo them.
    n_fields = len(config.fields)
    cite_base = 4.0 + 2.0 * (np.arange(n_fields) % 5)
    if_mu = np.log(1.2 + 0.4 * (np.arange(n_fields) % 4))
    pub_field = field_idx[owner]

    impact = np.round(rng.lognormal(mean=if_mu[pub_field], sigma=0.4), 3)
    cell_mean = cite_base[pub_field] * (end_year + 2 - years) / 2.0
    gamma_mult = rng.gamma(shape=1.0 / config.citation_dispersion,
                           scale=config.citation_dispersion, size=total)
    citations = rng.poisson(cell_mean * gamma_mult)

    byline_mean = np.array([BYLINE_MEAN[f.convention] for f in config.fields])
    n_authors = 1 + rng.poisson(byline_mean[pub_field] - 1.0, size=total)
    focal_pos = rng.integers(0, n_authors)
    n_co = int(n_authors.sum()) - total
    co_same = rng.random(n_co) < SAME_UNIVERSITY_SHARE
    co_ext = rng.integers(0, EXTERNAL_UNIVERSITIES, size=n_co)

    # Authorship table in byline order, in the Corpus's int32 columns.
    # Authors are coded as the roster row for the focal professor and -1
    # for a co-author, whom only write_publications names; universities
    # index the pools, then the external ones.
    author = np.full(total + n_co, -1, dtype=np.int32)
    author[np.cumsum(n_authors) - n_authors + focal_pos] = owner
    pool_start = np.cumsum([0] + [size for _, _, size in UNIVERSITY_POOLS])
    univ = (pool_start[type_idx] + univ_num).astype(np.int32)
    university = np.repeat(univ[owner], n_authors)
    co = author < 0
    university[co] = np.where(co_same, university[co], pool_start[-1] + co_ext)

    categories: dict[str, int] = {}
    field_category = np.array([categories.setdefault(f.sds, len(categories))
                               for f in config.fields])
    corpus = Corpus({
        "ids": NameSequence(PUBLICATION_ID, total),
        "year": years, "category": field_category[pub_field],
        "categories": list(categories), "citations": citations, "impact": impact,
        "n_authors": n_authors, "author": author,
        "university": university,
        "universities": [f"{prefix}{k}" for _, prefix, size in UNIVERSITY_POOLS
                         for k in range(size)]
        + [f"EXT{k}" for k in range(EXTERNAL_UNIVERSITIES)]})
    return roster, corpus


@dataclass
class RunResult:
    run: int
    seed: int
    n: int = 0
    n_terms: int = 0
    age_ame: float | None = None
    seniority_ame: float | None = None
    pseudo_r2: float | None = None
    aic: float | None = None
    age_degree: int | None = None
    converged: bool = False
    error: str | None = None


@dataclass
class RecoveryReport:
    config: SimConfig
    runs: list[RunResult]
    n_runs: int
    n_failed: int
    age_negative_fraction: float | None
    seniority_positive_fraction: float | None
    mean_age_ame: float | None
    mean_seniority_ame: float | None
    sd_age_ame: float | None
    sd_seniority_ame: float | None
    mean_pseudo_r2: float | None
    low_power: bool

    def to_dict(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        cfg["fields"] = [[f.sds, f.uda, f.convention] for f in self.config.fields]
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "config": cfg, "runs": [vars(r) for r in self.runs]}


def _mean_sd(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else None
    return float(arr.mean()), sd


def _recovery_run(cfg: SimConfig, run: int, max_degree: int, dependent: str,
                  cohort: tuple[Roster, Corpus] | None) -> RunResult:
    """Run ``run`` of :func:`recovery_experiment` on ``cohort``, or on a cohort
    drawn from ``cfg`` when it is None.  What the run builds dies with it."""
    outcome = RunResult(run=run, seed=cfg.seed)
    try:
        roster, corpus = generate_cohort(cfg) if cohort is None else cohort
        covariates = derive_covariates(roster, date(cfg.window[1], 12, 31), cfg.window)
        _, percentiles = run_scoring(roster, corpus, cfg.conventions(), covariates, cfg.window)
        frame = regression_frame(roster, covariates, percentiles)
        fit = fit_with_selected_degree(frame, ModelSpec(dependent=dependent), max_degree)
    except FitError as exc:  # a cohort the model cannot fit; bugs propagate
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    return replace(outcome, n=fit.n, n_terms=len(fit.terms), age_ame=fit.ame.get("Age"),
                   seniority_ame=fit.ame.get("Seniority"), pseudo_r2=fit.pseudo_r2,
                   aic=fit.aic, age_degree=fit.age_degree, converged=fit.converged)


def recovery_experiment(config: SimConfig, n_runs: int,
                        max_degree: int = 1,
                        dependent: str = "FSS",
                        first: tuple[Roster, Corpus] | None = None) -> RecoveryReport:
    """Repeated generate -> score -> percentile -> fit cycles.

    Run r uses seed ``config.seed + r``; ``first``, when given, is run 0's
    cohort, already generated from ``config``.  Each run's model offers age
    degrees 1..``max_degree`` to :func:`regress.fit_with_selected_degree`.  A
    run whose model cannot be fitted (:class:`FitError`) is recorded as
    failed, with an ``error`` such as "QuasiSeparationError: all candidate
    degrees failed: ...", and does not stop the experiment; any other
    exception propagates.  Sign-recovery fractions are taken over the runs
    that produced the corresponding effect.

    One run's objects are alive at a time: a run's cohort, scores and fit
    are dropped before the next cohort is drawn, and ``first`` is let go
    after run 0, so it is freed then unless the caller still holds it.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    results: list[RunResult] = []
    for run in range(n_runs):
        results.append(_recovery_run(replace(config, seed=config.seed + run), run,
                                     max_degree, dependent, first))
        first = None

    ok = [r for r in results if r.error is None]
    age_ames = [r.age_ame for r in ok if r.age_ame is not None]
    sen_ames = [r.seniority_ame for r in ok if r.seniority_ame is not None]
    r2s = [r.pseudo_r2 for r in ok if r.pseudo_r2 is not None]
    mean_age, sd_age = _mean_sd(age_ames)
    mean_sen, sd_sen = _mean_sd(sen_ames)
    low_power = (not ok) or any(r.n < 25 * max(r.n_terms, 1) for r in ok)
    return RecoveryReport(
        config=config,
        runs=results,
        n_runs=n_runs,
        n_failed=len(results) - len(ok),
        age_negative_fraction=(sum(a < 0 for a in age_ames) / len(age_ames)
                               if age_ames else None),
        seniority_positive_fraction=(sum(a > 0 for a in sen_ames) / len(sen_ames)
                                     if sen_ames else None),
        mean_age_ame=mean_age,
        mean_seniority_ame=mean_sen,
        sd_age_ame=sd_age,
        sd_seniority_ame=sd_sen,
        mean_pseudo_r2=float(np.mean(r2s)) if r2s else None,
        low_power=low_power,
    )
