"""Command-line pipeline driver.

Subcommands: ``compute`` (indicators + percentiles from roster and corpus),
``regress`` (per-discipline fractional-logit fits on compute output),
``simulate`` (synthetic cohort generation + sign-recovery experiment), and
``report`` (descriptive tables and distributions).

Exit codes: 0 success, 1 computation failure, 2 input or validation failure.
Every run writes a ``manifest.json`` with the resolved configuration next to
its outputs; reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import click
import numpy as np

from .corpus import (DEFAULT_EXCLUDED_DOC_TYPES, IngestError, _fmt_float, _real_number,
                     csv_rows, derive_covariates, ingest_publications, ingest_roster,
                     json_number, load_sds_map, read_json_object, write_publications,
                     write_roster)
from .credit import (CONVENTIONS, ConventionMap, CreditError,
                     load_convention_map, write_convention_map)
from .indicators import INDICATORS
from .pipeline import run_scoring
from .regress import (FitError, FitResult, ModelSpec, RegressionFrame,
                      fit_with_selected_degree)
from .report import (descriptive_table, distribution_histogram,
                     group_coefficient_of_variation, histogram_csv,
                     regression_table)
from .sim import SimConfig, generate_cohort, recovery_experiment

logger = logging.getLogger(__name__)


def _parse_window(text: str) -> tuple[int, int]:
    for sep in (":", "-"):
        if sep in text:
            left, _, right = text.partition(sep)
            try:
                window = (int(left), int(right))
            except ValueError:
                break
            if window[0] > window[1]:
                raise click.UsageError(f"window start after end: {text!r}")
            return window
    raise click.UsageError(f"window must look like 2006:2010, got {text!r}")


def _parse_census(text: str | None, window: tuple[int, int]) -> date:
    if text is None:
        return date(window[1], 12, 31)
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise click.UsageError(f"census date must be ISO formatted, got {text!r}")


def _require_paths(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise click.UsageError(f"input path does not exist: {p}")


def _input_stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (IngestError, CreditError, ValueError, OSError) as exc:
        raise click.UsageError(f"{label}: {exc}") from exc


def _compute_stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise click.ClickException(f"{label}: {exc}") from exc


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, inputs: dict, params: dict,
                    outputs: list[str]) -> None:
    manifest = {"command": command, "inputs": inputs, "parameters": params,
                "outputs": sorted(outputs)}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Debug-level logging.")
def main(verbose: bool) -> None:
    """Research performance measurement pipeline."""
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--roster", "roster_path", required=True, help="Roster CSV.")
@click.option("--pubs", "pubs_path", required=True,
              help="Publication corpus (CSV or JSON-lines).")
@click.option("--window", default="2006:2010", show_default=True,
              help="Observation years, START:END inclusive.")
@click.option("--census-date", default=None,
              help="Covariate census date (ISO); default is the window's last day.")
@click.option("--conventions", "conventions_path", default=None,
              help="CSV (sds, convention) overriding credit conventions per field.")
@click.option("--force-convention", type=click.Choice(CONVENTIONS), default=None,
              help="Apply one credit convention to every field.")
@click.option("--sds-map", "sds_map_path", default=None,
              help="CSV (sds, uda) used to validate roster field codes.")
@click.option("--exclude-doc-type", "excluded_doc_types", multiple=True,
              help="Document types to drop at ingest (repeatable); "
                   "defaults to editorial material, conference abstracts, replies.")
@click.option("--strict", is_flag=True,
              help="Fail on unknown byline authors and missing scaling cells.")
@click.option("--out", "out_path", required=True, help="Output directory.")
def compute(roster_path, pubs_path, window, census_date, conventions_path,
            force_convention, sds_map_path, excluded_doc_types, strict,
            out_path) -> None:
    """Score every rostered professor and percentile-scale the cohorts."""
    _require_paths(roster_path, pubs_path, conventions_path, sds_map_path)
    window_years = _parse_window(window)
    census = _parse_census(census_date, window_years)

    sds_map = _input_stage("sds map", load_sds_map, sds_map_path) \
        if sds_map_path else None
    roster = _input_stage("roster ingest", ingest_roster, roster_path, sds_map)
    covariates = _input_stage("roster covariates", derive_covariates, roster, census,
                              window_years)
    excluded = tuple(excluded_doc_types) or DEFAULT_EXCLUDED_DOC_TYPES
    corpus = _input_stage(
        "publication ingest", ingest_publications, pubs_path, excluded,
        roster_ids=set(roster.ids) if strict else None, strict=strict)
    if conventions_path:
        conventions = _input_stage("convention map", load_convention_map,
                                   conventions_path, force_convention)
    else:
        conventions = ConventionMap(global_override=force_convention)

    scores, percentiles = _compute_stage(
        "scoring", run_scoring, roster, corpus, conventions, covariates,
        window_years, strict)

    # csv writes a float as its repr, as the files promise
    sds = [roster.sds_names[c] for c in roster.sds.tolist()]
    uda = [roster.uda_names[c] for c in roster.uda.tolist()]
    out = _out_dir(out_path)
    with (out / "indicators.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["professor_id", "sds", "fss", "p", "ia", "ij",
                         "n_pubs", "inactive_flag"])
        writer.writerows(
            [pid, field, fss, p, _fmt_float(ia), _fmt_float(ij), n, int(n == 0)]
            for pid, field, fss, p, ia, ij, n in zip(
                roster.ids, sds, *(scores[c].tolist() for c in INDICATORS),
                scores["n_pubs"].tolist()))
    ranked, indicator = np.nonzero(~np.isnan(percentiles))
    with (out / "percentiles.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["professor_id", "indicator", "percentile"])
        writer.writerows([roster.ids[i], INDICATORS[j], value] for i, j, value in zip(
            ranked.tolist(), indicator.tolist(), percentiles[ranked, indicator].tolist()))
    with (out / "covariates.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["professor_id", "uda", "sds", *covariates])
        writer.writerows(zip(roster.ids, uda, sds, *(c.tolist() for c in covariates.values())))

    click.echo(f"scored {len(roster)} professors over {len(corpus)} publications "
               f"({corpus.dropped} dropped by document type)")
    _write_manifest(out, "compute",
                    inputs={"roster": str(roster_path), "pubs": str(pubs_path),
                            "conventions": conventions_path and str(conventions_path),
                            "sds_map": sds_map_path and str(sds_map_path)},
                    params={"window": list(window_years),
                            "census_date": census.isoformat(),
                            "strict": strict,
                            "force_convention": force_convention,
                            "excluded_doc_types": sorted(excluded)},
                    outputs=["indicators.csv", "percentiles.csv",
                             "covariates.csv", "manifest.json"])


_COVARIATE_COLUMNS = ("professor_id", "uda", "age", "seniority", "gender_dummy", "u1", "u2", "u3")


def _read_frame(cov_path: Path, pct_path: Path) -> RegressionFrame:
    """compute's covariates.csv and percentiles.csv, validated, as one frame."""
    problems: list[str] = []
    rows = list(csv_rows(cov_path, _COVARIATE_COLUMNS))
    index: dict[str, int] = {}
    for line, (pid, _, *values) in rows:
        if pid in index:
            problems.append(f"line {line}: duplicate professor_id {pid!r}")
        index.setdefault(pid, len(index))
        for name, text in zip(_COVARIATE_COLUMNS[2:], values):
            if name in ("age", "seniority") and _real_number(text, finite=True) is None:
                problems.append(f"line {line}: {name} must be a finite number, got {text!r}")
            elif name not in ("age", "seniority") and text not in ("0", "1"):
                problems.append(f"line {line}: {name} must be 0 or 1, got {text!r}")
    if problems:
        raise IngestError(cov_path, problems)

    percentiles = np.full((len(rows), len(INDICATORS)), np.nan)
    for line, (pid, indicator, text) in csv_rows(pct_path,
                                                 ("professor_id", "indicator", "percentile")):
        value = _real_number(text, finite=True)
        if pid not in index:
            problems.append(f"line {line}: unknown professor_id {pid!r}")
        elif indicator not in INDICATORS:
            problems.append(f"line {line}: unknown indicator {indicator!r}")
        elif value is None or not 0.0 <= value <= 100.0:
            problems.append(f"line {line}: percentile must be finite and in [0, 100], got {text!r}")
        elif not math.isnan(percentiles[index[pid], INDICATORS.index(indicator)]):
            problems.append(f"line {line}: second {indicator} percentile for {pid!r}")
        else:
            percentiles[index[pid], INDICATORS.index(indicator)] = value
    if problems:
        raise IngestError(pct_path, problems)

    numbers = np.array([fields[2:] for _, fields in rows], dtype=float).reshape(-1, 6)
    return RegressionFrame(ids=np.array([f[0] for _, f in rows], dtype=str),
                           uda=np.array([f[1] for _, f in rows], dtype=str),
                           age=numbers[:, 0], covariates=numbers[:, 1:], percentiles=percentiles)


def _spec_from_file(data: dict, overrides: dict) -> ModelSpec:
    if "age_degree" in data:
        raise ValueError("age_degree is not a spec key: regress selects the age degree "
                         "by AIC, up to --max-degree")
    return ModelSpec.from_mapping({**data, **overrides})


@main.command()
@click.option("--data", "data_path", required=True,
              help="Directory holding compute output (covariates.csv, percentiles.csv).")
@click.option("--dependent", type=click.Choice(INDICATORS), default="FSS",
              show_default=True, help="Indicator whose percentile is modeled.")
@click.option("--max-degree", type=click.IntRange(1, 3), default=3, show_default=True,
              help="Highest age polynomial degree offered to AIC selection.")
@click.option("--max-seniority", type=float, default=None,
              help="Keep only professors with seniority strictly below this.")
@click.option("--spec", "spec_path", default=None,
              help="JSON model spec (dependent, covariates, max_seniority); "
                   "flags override its entries.")
@click.option("--total-only", is_flag=True, help="Skip the per-discipline fits.")
@click.option("--allow-partial", is_flag=True,
              help="Keep going when a group's fit fails or does not converge.")
@click.option("--fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
@click.option("--out", "out_path", required=True, help="Output directory.")
def regress(data_path, dependent, max_degree, max_seniority, spec_path,
            total_only, allow_partial, fmt, out_path) -> None:
    """Fit fractional-logit performance models per discipline and in total."""
    data = Path(data_path)
    cov_path, pct_path = data / "covariates.csv", data / "percentiles.csv"
    _require_paths(data, cov_path, pct_path, spec_path)

    # flags override the spec file; the degree comes from AIC selection
    overrides = {}
    if click.get_current_context().get_parameter_source("dependent").name != "DEFAULT":
        overrides["dependent"] = dependent
    if max_seniority is not None:
        overrides["max_seniority"] = max_seniority
    if spec_path:
        spec = _input_stage("model spec", read_json_object, spec_path,
                            lambda data: _spec_from_file(data, overrides))
    else:
        spec = _input_stage("model spec", ModelSpec.from_mapping, overrides)

    frame = _input_stage("regression inputs", _read_frame, cov_path, pct_path)
    groups = [("Total", frame)]
    if not total_only:
        groups += [(str(uda), frame.subset(frame.uda == uda)) for uda in np.unique(frame.uda)]

    fits: dict[str, FitResult] = {}
    failures: list[str] = []
    for name, members in groups:
        try:
            fit = fit_with_selected_degree(members, spec, max_degree=max_degree)
        except FitError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if not fit.converged:
            failures.append(f"{name}: did not converge")
            continue
        fits[name] = fit
    if failures and not allow_partial:
        raise click.ClickException(
            "regression: " + "; ".join(failures) + " (use --allow-partial to keep going)")
    for failure in failures:
        logger.warning("skipped group %s", failure)
    if not fits:
        raise click.ClickException("regression: no group could be fitted")

    out = _out_dir(out_path)
    table = regression_table(fits, fmt=fmt)
    table_name = f"regression_table.{'txt' if fmt == 'text' else 'csv'}"
    (out / table_name).write_text(table, encoding="utf-8")
    summary = ("dependent", "age_degree", "age_mean", "n", "aic", "qll", "pseudo_r2",
               "converged", "dropped_terms", "vifs", "n_iter")
    fits_payload = [{
        "group": name, **{key: getattr(fit, key) for key in summary},
        "terms": [{"term": term, "coefficient": fit.coefficients[term],
                   "robust_se": fit.robust_se[term], "classical_se": fit.classical_se[term],
                   "ame": fit.ame.get(term)} for term in fit.terms],
    } for name, fit in fits.items()]
    (out / "fits.json").write_text(
        json.dumps(fits_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    click.echo(f"fitted {len(fits)} group(s); {len(failures)} skipped")
    _write_manifest(out, "regress",
                    inputs={"data": str(data_path), "spec": spec_path and str(spec_path)},
                    params={"dependent": spec.dependent, "max_degree": max_degree,
                            "max_seniority": max_seniority,
                            "total_only": total_only,
                            "allow_partial": allow_partial, "fmt": fmt},
                    outputs=[table_name, "fits.json", "manifest.json"])


@main.command()
@click.option("--config", "config_path", default=None,
              help="JSON simulation config; defaults are a realistic cohort.")
@click.option("--runs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Sign-recovery repetitions (seed advances by 1 per run).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--n-professors", type=int, default=None,
              help="Override the config cohort size.")
@click.option("--dependent", type=click.Choice(INDICATORS), default="FSS",
              show_default=True)
@click.option("--max-degree", type=click.IntRange(1, 3), default=1, show_default=True,
              help="Age degree offered to AIC selection inside each run.")
@click.option("--out", "out_path", required=True, help="Output directory.")
def simulate(config_path, runs, seed, n_professors, dependent, max_degree,
             out_path) -> None:
    """Generate a synthetic cohort and measure ground-truth sign recovery."""
    _require_paths(config_path)
    config = _input_stage("sim config", SimConfig.from_file, config_path) \
        if config_path else SimConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if n_professors is not None:
        overrides["n_professors"] = n_professors
    if overrides:
        config = _input_stage("sim config", replace, config, **overrides)

    roster, corpus = _compute_stage("generation", generate_cohort, config)
    out = _out_dir(out_path)
    write_roster(out / "roster.csv", roster)
    write_publications(out / "publications.csv", corpus)
    write_convention_map(out / "conventions.csv",
                         {f.sds: f.convention for f in config.fields})

    rep = _compute_stage("recovery", recovery_experiment, config, runs,
                         max_degree, dependent, first=(roster, corpus))
    (out / "recovery.json").write_text(
        json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with (out / "recovery_runs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "seed", "n", "n_terms", "age_ame", "seniority_ame",
                         "pseudo_r2", "aic", "age_degree", "converged", "error"])
        for r in rep.runs:
            writer.writerow([r.run, r.seed, r.n, r.n_terms, _fmt_float(r.age_ame),
                             _fmt_float(r.seniority_ame), _fmt_float(r.pseudo_r2),
                             _fmt_float(r.aic), "" if r.age_degree is None else r.age_degree,
                             int(r.converged), r.error or ""])

    frac_age = rep.age_negative_fraction
    frac_sen = rep.seniority_positive_fraction
    click.echo(f"{len(roster)} professors, {len(corpus)} publications; "
               f"{runs} run(s), {rep.n_failed} failed; "
               f"age AME negative in {'-' if frac_age is None else f'{frac_age:.0%}'}, "
               f"seniority AME positive in {'-' if frac_sen is None else f'{frac_sen:.0%}'}")
    _write_manifest(out, "simulate",
                    inputs={"config": config_path and str(config_path)},
                    params={"runs": runs, "seed": config.seed,
                            "n_professors": config.n_professors,
                            "dependent": dependent, "max_degree": max_degree},
                    outputs=["roster.csv", "publications.csv", "conventions.csv",
                             "recovery.json", "recovery_runs.csv", "manifest.json"])


_INDICATOR_COLUMNS = ("professor_id", "fss", "p", "ia", "ij", "n_pubs")


def _read_indicators(path: Path) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """compute's indicators.csv, validated: each professor id's row, and the
    fss and n_pubs columns."""
    problems: list[str] = []
    rows: dict[str, int] = {}
    fss: list[float | None] = []
    n_pubs: list[int] = []
    for line, (pid, *texts, count) in csv_rows(path, _INDICATOR_COLUMNS):
        if pid in rows:
            problems.append(f"line {line}: duplicate professor_id {pid!r}")
        rows[pid] = len(fss)
        for name, text in zip(_INDICATOR_COLUMNS[1:5], texts):
            value = _real_number(text, finite=True)
            optional = name in ("ia", "ij")
            if (value is None or value < 0) and not (optional and text == ""):
                problems.append(f"line {line}: {name} must be a finite number >= 0"
                                f"{' or empty' if optional else ''}, got {text!r}")
        whole = count.isascii() and count.isdigit()
        if not whole:
            problems.append(f"line {line}: n_pubs must be a whole number >= 0, got {count!r}")
        fss.append(_real_number(texts[0], finite=True))
        n_pubs.append(int(count) if whole else 0)
    if problems:
        raise IngestError(path, problems)
    return rows, np.array(fss, dtype=float), np.array(n_pubs, dtype=np.int64)


def _headcounts(data: dict) -> dict[str, int]:
    """Population headcount per discipline, from the totals JSON object."""
    for uda, count in data.items():
        if json_number(count, f"total for {uda!r}", whole=True) < 0:
            raise ValueError(f"total for {uda!r} must be >= 0, got {count}")
    return data


def _positive_finite(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a finite number > 0, got {value!r}")
    return value


@main.command("report")
@click.option("--roster", "roster_path", required=True, help="Roster CSV.")
@click.option("--indicators", "indicators_path", required=True,
              help="indicators.csv from a compute run.")
@click.option("--window", default="2006:2010", show_default=True)
@click.option("--census-date", default=None)
@click.option("--totals", "totals_path", default=None,
              help="JSON mapping uda -> population headcount for coverage shares.")
@click.option("--age-bin-width", type=float, default=5.0, show_default=True,
              callback=_positive_finite, help="Histogram bin width in years.")
@click.option("--fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
@click.option("--out", "out_path", required=True, help="Output directory.")
def report_cmd(roster_path, indicators_path, window, census_date, totals_path,
               age_bin_width, fmt, out_path) -> None:
    """Descriptive tables, age distributions, and indicator dispersion."""
    _require_paths(roster_path, indicators_path, totals_path)
    window_years = _parse_window(window)
    census = _parse_census(census_date, window_years)
    roster = _input_stage("roster ingest", ingest_roster, roster_path)
    index, fss, n_pubs = _input_stage("indicators", _read_indicators, Path(indicators_path))
    totals = _input_stage("totals", read_json_object, totals_path, _headcounts) \
        if totals_path else None

    covariates = _input_stage("roster covariates", derive_covariates, roster, census,
                              window_years)
    rows = np.array([index.get(pid, -1) for pid in roster.ids], dtype=np.int64)
    missing = np.flatnonzero(rows < 0).tolist()
    if missing:
        error = IngestError(roster.source, [
            f"line {roster.lines[i]}: {roster.ids[i]}: no scores in {indicators_path}"
            for i in missing])
        raise click.UsageError(f"indicators: {error}")
    fss, inactive = fss[rows], n_pubs[rows] == 0

    out = _out_dir(out_path)
    tables = _compute_stage("descriptives", descriptive_table, roster, covariates,
                            inactive, totals, fmt)
    desc_name = f"descriptives.{'txt' if fmt == 'text' else 'csv'}"
    (out / desc_name).write_text(tables, encoding="utf-8")

    ages = covariates["age"]
    (out / "age_histogram.csv").write_text(
        histogram_csv(distribution_histogram(ages, age_bin_width)), encoding="utf-8")
    (out / "appointment_age_histogram.csv").write_text(
        histogram_csv(distribution_histogram(ages - covariates["seniority"], age_bin_width)),
        encoding="utf-8")

    cvs = group_coefficient_of_variation({roster.sds_names[c]: fss[roster.sds == c]
                                          for c in np.unique(roster.sds).tolist()})
    with (out / "fss_cv_by_sds.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sds", "coefficient_of_variation"])
        for sds, cv in cvs.items():
            writer.writerow([sds, repr(cv)])

    click.echo(f"reported on {len(roster)} professors across "
               f"{np.unique(roster.uda).size} discipline(s)")
    _write_manifest(out, "report",
                    inputs={"roster": str(roster_path),
                            "indicators": str(indicators_path),
                            "totals": totals_path and str(totals_path)},
                    params={"window": list(window_years),
                            "census_date": census.isoformat(),
                            "age_bin_width": age_bin_width, "fmt": fmt},
                    outputs=[desc_name, "age_histogram.csv",
                             "appointment_age_histogram.csv", "fss_cv_by_sds.csv",
                             "manifest.json"])


if __name__ == "__main__":
    main()
