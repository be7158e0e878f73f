"""Synthetic cohort generator: determinism, calibration, recovery harness."""

import logging
import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import resperf.sim
from helpers import professors, records
from resperf.corpus import derive_covariates, write_publications, write_roster
from resperf.credit import ALPHABETICAL, POSITION_WEIGHTED
from resperf.sim import (AGE_BRACKETS, FieldSpec, SimConfig, generate_cohort,
                         recovery_experiment)

FAST = SimConfig(n_professors=300, seed=77)


def cohort_age_seniority(roster, window):
    cov = derive_covariates(roster, date(window[1], 12, 31), window)
    return cov["age"], cov["seniority"]


def serialize(roster, corpus):
    return professors(roster), records(corpus)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_professors": -1},
        {"seed": -1},
        {"fields": ()},
        {"age_seniority_corr_target": 1.0},
        {"citation_dispersion": 0.0},
        {"latent_heterogeneity": -0.1},
        {"window": (2010, 2006)},
        {"gender_male_share": 1.2},
        {"university_type_shares": (0.5, 0.5, 0.5, -0.5)},
        {"university_type_shares": (0.5, 0.2, 0.2, 0.2)},
        {"mean_appointment_age": 25.0},
        {"fields": (FieldSpec("MAT/01", "MAT", "whimsy"),)},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(
            '{"n_professors": 120, "seed": 9, "window": [2006, 2010],\n'
            ' "fields": [["MAT/01", "MAT", "alphabetical"],\n'
            '            {"sds": "BIO/01", "uda": "BIO", "convention": "position_weighted"}],\n'
            ' "age_seniority_corr_target": 0.65}\n')
        config = SimConfig.from_file(path)
        assert config.n_professors == 120
        assert config.fields == (FieldSpec("MAT/01", "MAT", ALPHABETICAL),
                                 FieldSpec("BIO/01", "BIO", POSITION_WEIGHTED))
        assert config.age_seniority_corr_target == 0.65

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"n_professors": 10, "surprise": 1}\n')
        with pytest.raises(ValueError, match="unknown sim config keys"):
            SimConfig.from_file(path)

    def test_conventions_map_uses_field_specs(self):
        cmap = FAST.conventions()
        assert cmap.resolve("MAT/01", "MAT") == ALPHABETICAL
        assert cmap.resolve("MED/01", "MED") == POSITION_WEIGHTED

    def test_age_bracket_shares_sum_to_one(self):
        assert sum(b[2] for b in AGE_BRACKETS) == pytest.approx(1.0, abs=1e-12)


class TestGenerateCohort:
    def test_deterministic_for_same_seed(self):
        r1, c1 = generate_cohort(FAST)
        r2, c2 = generate_cohort(FAST)
        assert serialize(r1, c1) == serialize(r2, c2)

    def test_different_seed_differs(self):
        r1, c1 = generate_cohort(FAST)
        r2, c2 = generate_cohort(replace(FAST, seed=FAST.seed + 1))
        assert serialize(r1, c1) != serialize(r2, c2)

    def test_byte_identical_files(self, tmp_path):
        roster, corpus = generate_cohort(FAST)
        for tag in ("a", "b"):
            write_roster(tmp_path / f"roster_{tag}.csv", roster)
            write_publications(tmp_path / f"pubs_{tag}.csv", corpus)
        assert ((tmp_path / "roster_a.csv").read_bytes()
                == (tmp_path / "roster_b.csv").read_bytes())
        assert ((tmp_path / "pubs_a.csv").read_bytes()
                == (tmp_path / "pubs_b.csv").read_bytes())

    def test_empty_cohort(self):
        roster, corpus = generate_cohort(replace(FAST, n_professors=0))
        assert professors(roster) == [] and len(corpus) == 0

    def test_roster_is_valid(self):
        roster, corpus = generate_cohort(FAST)
        assert len(roster) == 300
        assert len(set(roster.ids)) == 300
        census = date(2010, 12, 31)
        for prof in professors(roster):
            assert prof.birth_date < prof.appointment_date <= census
        cov = derive_covariates(roster, census, FAST.window)
        # birth dates are rounded to days, so allow half a day of slack
        assert ((35.99 <= cov["age"]) & (cov["age"] <= 76.01)).all()
        assert (cov["seniority"] >= 0.0).all()

    def test_focal_professor_on_every_byline(self):
        roster, corpus = generate_cohort(FAST)
        ids = set(roster.ids)
        for pub in records(corpus):
            focal = [a for a, _ in pub.byline if a in ids]
            assert len(focal) == 1
            assert pub.year in range(2006, 2011)
            assert pub.citations >= 0
            assert pub.journal_if is not None and pub.journal_if >= 0

    def test_age_pyramid_on_target(self):
        roster, _ = generate_cohort(replace(FAST, n_professors=20000, seed=5))
        census = date(2010, 12, 31)
        ages = derive_covariates(roster, census, FAST.window)["age_years"]
        shares = {
            "under_41": float((ages < 41).mean()),
            "under_51": float((ages < 51).mean()),
            "over_65": float((ages > 65).mean()),
            "over_70": float((ages > 70).mean()),
        }
        assert shares["under_41"] < 0.015
        assert shares["under_51"] < 0.135
        assert 0.28 < shares["over_65"] < 0.38
        assert 0.10 < shares["over_70"] < 0.16

    def test_correlation_target_hit(self):
        config = replace(FAST, n_professors=5000, seed=42)
        roster, _ = generate_cohort(config)
        ages, sens = cohort_age_seniority(roster, config.window)
        corr = float(np.corrcoef(ages, sens)[0, 1])
        assert abs(corr - config.age_seniority_corr_target) < 0.05

    def test_infeasible_correlation_targets(self):
        for target in (-0.5, 0.05):
            config = replace(FAST, age_seniority_corr_target=target)
            with pytest.raises(ValueError, match="infeasible correlation target"):
                generate_cohort(config)

    def test_heterogeneity_raises_inactive_share(self):
        base = replace(FAST, n_professors=3000, latent_heterogeneity=0.0, seed=11)
        noisy = replace(base, latent_heterogeneity=1.5)

        def inactive_share(cfg):
            roster, corpus = generate_cohort(cfg)
            active = {a for p in records(corpus) for a, _ in p.byline}
            return np.mean([pid not in active for pid in roster.ids])

        assert inactive_share(noisy) > inactive_share(base) + 0.02

    def test_gender_share(self):
        roster, _ = generate_cohort(replace(FAST, n_professors=4000, seed=3))
        male = np.mean(roster.male)
        assert abs(male - FAST.gender_male_share) < 0.03

    def test_mean_appointment_age_on_target(self):
        roster, _ = generate_cohort(replace(FAST, n_professors=8000, seed=19))
        app_ages = [(p.appointment_date - p.birth_date).days / 365.2425
                    for p in professors(roster)]
        assert abs(float(np.mean(app_ages)) - FAST.mean_appointment_age) < 1.0


class TestRecoveryExperiment:
    def test_signs_recovered_quickly(self):
        config = replace(FAST, n_professors=1200, seed=501)
        report = recovery_experiment(config, n_runs=3)
        assert report.n_failed == 0
        assert report.age_negative_fraction == 1.0
        assert report.seniority_positive_fraction == 1.0
        assert report.mean_age_ame < 0 < report.mean_seniority_ame
        assert not report.low_power
        assert all(r.converged for r in report.runs)
        assert [r.seed for r in report.runs] == [501, 502, 503]

    def test_null_effects_recover_nothing_systematic(self):
        config = replace(FAST, n_professors=600, seed=900,
                         true_age_effect=0.0, true_seniority_effect=0.0)
        report = recovery_experiment(config, n_runs=12)
        assert report.n_failed == 0
        # with no true effect the sign is a coin flip, not a recovery
        assert 0.05 < report.age_negative_fraction < 0.95
        assert abs(report.mean_age_ame) < abs(report.sd_age_ame) * 2.0

    def test_effect_dose_response(self):
        means = []
        for b_age in (-0.005, -0.02, -0.05):
            config = replace(FAST, n_professors=500, seed=321,
                             true_age_effect=b_age)
            report = recovery_experiment(config, n_runs=6)
            means.append(report.mean_age_ame)
        assert means[0] > means[1] > means[2]

    def test_low_power_flagged_for_tiny_cohorts(self):
        config = replace(FAST, n_professors=60, seed=15)
        report = recovery_experiment(config, n_runs=2)
        assert report.low_power

    def test_per_run_failures_isolated(self):
        config = replace(FAST, n_professors=2, seed=8)
        report = recovery_experiment(config, n_runs=3)
        assert report.n_failed == 3
        assert report.age_negative_fraction is None
        assert report.mean_age_ame is None
        assert all(r.error for r in report.runs)
        assert report.low_power

    def test_partial_failures_use_surviving_runs(self):
        # five professors fit only when enough dummies prune away
        config = replace(FAST, n_professors=5, seed=8)
        report = recovery_experiment(config, n_runs=3)
        failed = [r for r in report.runs if r.error is not None]
        assert report.n_failed == len(failed)
        if report.n_failed < 3:
            assert report.age_negative_fraction is not None

    def test_unexpected_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr("resperf.sim.run_scoring", broken)
        with pytest.raises(IndexError, match="out of bounds"):
            recovery_experiment(replace(FAST, n_professors=100), n_runs=2)

    def test_later_runs_format_no_names(self, monkeypatch, caplog, tmp_path):
        """Runs after run 0 that log no skip warning never name a publication
        or a co-author; writing run 0's files names each once."""
        formatted = []

        class Pattern(str):
            def format(self, *args):
                formatted.append(args)
                return super().format(*args)

        for name in ("PUBLICATION_ID", "COAUTHOR_NAME"):
            monkeypatch.setattr(resperf.sim, name, Pattern(getattr(resperf.sim, name)))
        roster, corpus = generate_cohort(FAST)
        with caplog.at_level(logging.WARNING):
            report = recovery_experiment(FAST, n_runs=4, first=(roster, corpus))
        assert report.n_failed == 0 and caplog.records == []
        assert formatted == []
        write_publications(tmp_path / "pubs.csv", corpus)
        assert len(formatted) == len(corpus.ids) + len(corpus.authors) - len(roster)

    def test_run_count_validated(self):
        with pytest.raises(ValueError, match="n_runs"):
            recovery_experiment(FAST, n_runs=0)

    def test_report_dict_round_trips_to_json(self):
        import json
        config = replace(FAST, n_professors=400, seed=61)
        report = recovery_experiment(config, n_runs=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_runs"] == 2
        assert payload["config"]["n_professors"] == 400
        assert payload["config"]["latent_heterogeneity"] == config.latent_heterogeneity
        assert len(payload["runs"]) == 2
        assert math.isfinite(payload["runs"][0]["age_ame"])
