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

import json
import logging
import math
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import click
import numpy as np

from .corpus import (CODE, COUNT, DEFAULT_EXCLUDED_DOC_TYPES, ID, MAX_COUNT_DIGITS, REAL,
                     TEXT, Column, Roster, RowProblems, _blank_nan, _in_processes,
                     derive_covariates, ingest_publications, ingest_roster, json_number,
                     read_columns, read_json_object, read_pairs, write_csv,
                     write_publications, write_roster)
from .credit import (CONVENTIONS, ConventionMap, load_convention_map,
                     write_convention_map)
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
            if not (1 <= window[0] and window[1] <= 9999):
                raise click.UsageError(f"window years must lie in 1-9999, got {text!r}")
            return window
    raise click.UsageError(f"window must look like 2006:2010, got {text!r}")


def _parse_census(text: str | None, window: tuple[int, int]) -> date:
    if text is None:
        return date(window[1], 12, 31)
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise click.UsageError(f"census date must be ISO formatted, got {text!r}")


# An input file or directory: one that does not exist exits 2 naming it.
_INPUT = click.Path(exists=True)


def _input_stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError) as exc:  # IngestError and CreditError among them
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


class _LineFormatter(logging.Formatter):
    """Puts "<LEVEL> <logger>: " before every line of a record's message, so a
    record of many lines reads as many one-line records."""

    def formatMessage(self, record: logging.LogRecord) -> str:
        prefix = f"{record.levelname} {record.name}: "
        return prefix + record.message.replace("\n", "\n" + prefix)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Debug-level logging.")
def main(verbose: bool) -> None:
    """Research performance measurement pipeline."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LineFormatter())
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        handlers=[handler])


@main.command()
@click.option("--roster", "roster_path", type=_INPUT, required=True, help="Roster CSV.")
@click.option("--pubs", "pubs_path", type=_INPUT, required=True,
              help="Publication corpus (CSV or JSON-lines).")
@click.option("--window", default="2006:2010", show_default=True,
              help="Observation years, START:END inclusive.")
@click.option("--census-date", default=None,
              help="Covariate census date (ISO); default is the window's last day.")
@click.option("--conventions", "conventions_path", type=_INPUT, default=None,
              help="CSV (sds, convention) overriding credit conventions per field.")
@click.option("--force-convention", type=click.Choice(CONVENTIONS), default=None,
              help="Apply one credit convention to every field.")
@click.option("--sds-map", "sds_map_path", type=_INPUT, default=None,
              help="CSV (sds, uda) used to validate roster field codes.")
@click.option("--exclude-doc-type", "excluded_doc_types", multiple=True,
              help="Document types to drop at ingest (repeatable); "
                   "defaults to editorial material, conference abstracts, replies.")
@click.option("--strict", is_flag=True,
              help="Fail on an unknown byline author, and on a publication IJ would "
                   "skip: an unknown impact factor or no impact-factor scaling cell.")
@click.option("--out", "out_path", required=True, help="Output directory.")
def compute(roster_path, pubs_path, window, census_date, conventions_path,
            force_convention, sds_map_path, excluded_doc_types, strict,
            out_path) -> None:
    """Score every rostered professor and percentile-scale the cohorts."""
    window_years = _parse_window(window)
    census = _parse_census(census_date, window_years)

    sds_map = _input_stage("sds map", read_pairs, sds_map_path, "sds", "uda") \
        if sds_map_path else None
    roster = _input_stage("roster ingest", ingest_roster, roster_path, sds_map)
    covariates = _input_stage("roster covariates", derive_covariates, roster, census,
                              window_years)
    excluded = tuple(excluded_doc_types) or DEFAULT_EXCLUDED_DOC_TYPES
    corpus = _input_stage("publication ingest", ingest_publications, pubs_path,
                          dict(zip(roster.ids, range(len(roster)))), excluded, strict)
    if conventions_path:
        conventions = _input_stage("convention map", load_convention_map,
                                   conventions_path, force_convention)
    else:
        conventions = ConventionMap(global_override=force_convention)

    scores, percentiles = _compute_stage(
        "scoring", run_scoring, roster, corpus, conventions, covariates,
        window_years, strict)

    sds = [roster.sds_names[c] for c in roster.sds.tolist()]
    uda = [roster.uda_names[c] for c in roster.uda.tolist()]
    ranked, indicator = np.nonzero(~np.isnan(percentiles))
    out = _out_dir(out_path)
    files = [(out / "percentiles.csv", ["professor_id", "indicator", "percentile"],
              [[roster.ids[i] for i in ranked.tolist()],
               [INDICATORS[j] for j in indicator.tolist()], percentiles[ranked, indicator]]),
             (out / "indicators.csv",
              ["professor_id", "sds", "fss", "p", "ia", "ij", "n_pubs", "inactive_flag"],
              [roster.ids, sds, scores["FSS"], scores["P"], _blank_nan(scores["IA"]),
               _blank_nan(scores["IJ"]), scores["n_pubs"], (scores["n_pubs"] == 0).astype(int)]),
             (out / "covariates.csv", ["professor_id", "uda", "sds", *covariates],
              [roster.ids, uda, sds, *covariates.values()])]
    # percentiles.csv, 4 rows per professor, is written here; the others in a forked child
    _compute_stage("output", _in_processes, lambda part: [write_csv(*file) for file in part],
                   [files[:1], files[1:]])

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


_INDICATOR_CODES = {name: code for code, name in enumerate(INDICATORS)}
# Exclusive bound on age and seniority: compute writes values below it,
# since roster dates fall in years 1 to 9999.
_MAX_YEARS = 10_000
_COVARIATE_COLUMNS = (
    Column("professor_id", ID, "duplicate professor_id {!r}"),
    Column("uda", TEXT),
    *(Column(name, REAL, f"{name} must be a finite number, got {{!r}}",
             f"{name} must be in [0, {_MAX_YEARS}), got {{!r}}",
             bounds=(0.0, math.nextafter(_MAX_YEARS, 0))) for name in ("age", "seniority")),
    *(Column(name, CODE, f"{name} must be 0 or 1, got {{!r}}", codes={"0": 0, "1": 1})
      for name in ("gender_dummy", "u1", "u2", "u3")))


def _read_frame(cov_path: Path, pct_path: Path) -> RegressionFrame:
    """compute's covariates.csv and percentiles.csv, validated, as one frame."""
    covariates, rows = read_columns(cov_path, _COVARIATE_COLUMNS)
    ids = list(rows)  # each row's, no id being repeated
    percentiles = np.full((len(ids), len(INDICATORS)), np.nan)

    def once(block, good):
        """The good rows whose (professor, indicator) pair an earlier good row
        gave; each good row's percentile is set."""
        pid, indicator = block["professor_id"], block["indicator"]
        ok = np.flatnonzero(good)
        first = ok[np.unique(pid[ok] * len(INDICATORS) + indicator[ok], return_index=True)[1]]
        repeated = good.copy()
        repeated[first] = ~np.isnan(percentiles[pid[first], indicator[first]])
        percentiles[pid[ok], indicator[ok]] = block["percentile"][ok]
        return repeated, lambda i: (f"second {INDICATORS[indicator[i]]} percentile "
                                    f"for {ids[pid[i]]!r}")

    read_columns(pct_path, (
        Column("professor_id", CODE, "unknown professor_id {!r}", stop=True, codes=rows),
        Column("indicator", CODE, "unknown indicator {!r}", stop=True, codes=_INDICATOR_CODES),
        Column("percentile", REAL, "percentile must be finite and in [0, 100], got {!r}",
               stop=True, bounds=(0.0, 100.0))), once)
    numbers = np.column_stack([covariates[column.name] for column in _COVARIATE_COLUMNS[2:]])
    return RegressionFrame(uda=np.array(covariates["uda"], dtype=str), age=numbers[:, 0],
                           covariates=numbers[:, 1:], percentiles=percentiles)


def _spec_from_file(data: dict, overrides: dict) -> ModelSpec:
    if "age_degree" in data:
        raise ValueError("age_degree is not a spec key: regress selects the age degree "
                         "by AIC, up to --max-degree")
    return ModelSpec.from_mapping({**data, **overrides})


@main.command()
@click.option("--data", "data_path", type=_INPUT, required=True,
              help="Directory holding compute output (covariates.csv, percentiles.csv).")
@click.option("--dependent", type=click.Choice(INDICATORS), default="FSS",
              show_default=True, help="Indicator whose percentile is modeled.")
@click.option("--max-degree", type=click.IntRange(1, 3), default=3, show_default=True,
              help="Highest age polynomial degree offered to AIC selection.")
@click.option("--max-seniority", type=float, default=None,
              help="Keep only professors with seniority strictly below this.")
@click.option("--spec", "spec_path", type=_INPUT, default=None,
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

    data = Path(data_path)
    frame = _input_stage("regression inputs", _read_frame, data / "covariates.csv",
                         data / "percentiles.csv")
    groups = [("Total", frame)]
    if not total_only:
        groups += [(uda, frame.subset(frame.uda == uda))
                   for uda in sorted(set(frame.uda.tolist()))]

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
@click.option("--config", "config_path", type=_INPUT, default=None,
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
    config = _input_stage("sim config", SimConfig.from_file, config_path) \
        if config_path else SimConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if n_professors is not None:
        overrides["n_professors"] = n_professors
    if overrides:
        config = _input_stage("sim config", replace, config, **overrides)
    if config.n_professors < 2:
        raise click.UsageError(f"sim config: a cohort needs at least 2 professors, "
                               f"got {config.n_professors}")

    roster, corpus = _compute_stage("generation", generate_cohort, config)
    out = _out_dir(out_path)
    write_roster(out / "roster.csv", roster)
    write_publications(out / "publications.csv", corpus, roster.ids)
    write_convention_map(out / "conventions.csv",
                         {f.sds: f.convention for f in config.fields})
    drawn = f"{len(roster)} professors, {len(corpus)} publications"

    # Run 0's cohort is handed over with no name left on it, so the runs free
    # it after run 0; _compute_stage's arguments would hold it to the end.
    cohort = [(roster, corpus)]
    del roster, corpus
    try:
        rep = recovery_experiment(config, runs, max_degree, dependent, first=cohort.pop())
    except Exception as exc:
        raise click.ClickException(f"recovery: {exc}") from exc
    (out / "recovery.json").write_text(
        json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    header = ("run", "seed", "n", "n_terms", "age_ame", "seniority_ame", "pseudo_r2", "aic",
              "age_degree", "converged", "error")
    columns = [[getattr(r, name) for r in rep.runs] for name in header]
    columns[4:8] = map(_blank_nan, columns[4:8])
    columns[9] = list(map(int, columns[9]))
    write_csv(out / "recovery_runs.csv", header, columns)

    frac_age = rep.age_negative_fraction
    frac_sen = rep.seniority_positive_fraction
    click.echo(f"{drawn}; {runs} run(s), {rep.n_failed} failed; "
               f"age AME negative in {'-' if frac_age is None else f'{frac_age:.0%}'}, "
               f"seniority AME positive in {'-' if frac_sen is None else f'{frac_sen:.0%}'}")
    _write_manifest(out, "simulate",
                    inputs={"config": config_path and str(config_path)},
                    params={"runs": runs, "seed": config.seed,
                            "n_professors": config.n_professors,
                            "dependent": dependent, "max_degree": max_degree},
                    outputs=["roster.csv", "publications.csv", "conventions.csv",
                             "recovery.json", "recovery_runs.csv", "manifest.json"])


_INDICATOR_COLUMNS = (
    Column("professor_id", ID, "duplicate professor_id {!r}"),
    *(Column(name, REAL, f"{name} must be a finite number >= 0, got {{!r}}")
      for name in ("fss", "p")),
    *(Column(name, REAL, f"{name} must be a finite number >= 0 or empty, got {{!r}}",
             blank=True) for name in ("ia", "ij")),
    Column("n_pubs", COUNT, "n_pubs must be a whole number >= 0, got {!r}",
           f"n_pubs must be below 10^{MAX_COUNT_DIGITS}, got {{!r}}"))


def _read_indicators(path: Path) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """compute's indicators.csv, validated: each professor id's row, and the
    fss and n_pubs columns."""
    columns, rows = read_columns(path, _INDICATOR_COLUMNS)
    return rows, columns["fss"], columns["n_pubs"]


def _headcounts(data: dict, roster: Roster) -> dict[str, int]:
    """Population headcount per discipline, from the totals JSON object; none
    may be below the discipline's rostered professors."""
    for uda, count in data.items():
        if json_number(count, f"total for {uda!r}", whole=True) < 0:
            raise ValueError(f"total for {uda!r} must be >= 0, got {count}")
    rostered = np.bincount(roster.uda, minlength=len(roster.uda_names))
    short = [f"{uda!r} ({data[uda]} < {k})"
             for uda, k in sorted(zip(roster.uda_names, rostered.tolist()))
             if data.get(uda, k) < k]
    if short:
        raise ValueError(f"total below the rostered professors for {', '.join(short)}")
    return data


def _positive_finite(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a finite number > 0, got {value!r}")
    return value


@main.command("report")
@click.option("--roster", "roster_path", type=_INPUT, required=True, help="Roster CSV.")
@click.option("--indicators", "indicators_path", type=_INPUT, required=True,
              help="indicators.csv from a compute run.")
@click.option("--window", default="2006:2010", show_default=True)
@click.option("--census-date", default=None)
@click.option("--totals", "totals_path", type=_INPUT, default=None,
              help="JSON mapping uda -> population headcount for coverage shares.")
@click.option("--age-bin-width", type=float, default=5.0, show_default=True,
              callback=_positive_finite, help="Histogram bin width in years.")
@click.option("--fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
@click.option("--out", "out_path", required=True, help="Output directory.")
def report_cmd(roster_path, indicators_path, window, census_date, totals_path,
               age_bin_width, fmt, out_path) -> None:
    """Descriptive tables, age distributions, and indicator dispersion."""
    window_years = _parse_window(window)
    census = _parse_census(census_date, window_years)
    roster = _input_stage("roster ingest", ingest_roster, roster_path)
    if not len(roster):
        raise click.UsageError(f"roster ingest: {roster.source}: the roster lists no professors")
    index, fss, n_pubs = _input_stage("indicators", _read_indicators, Path(indicators_path))
    totals = _input_stage("totals", read_json_object, totals_path,
                          lambda data: _headcounts(data, roster)) if totals_path else None

    covariates = _input_stage("roster covariates", derive_covariates, roster, census,
                              window_years)
    rows = np.array([index.get(pid, -1) for pid in roster.ids], dtype=np.int64)
    unscored = RowProblems(roster.source)
    unscored.start(roster.lines.tolist())
    unscored.flag(rows < 0, lambda i: f"{roster.ids[i]}: no scores in {indicators_path}")
    _input_stage("indicators", unscored.raise_any)
    if len(index) > len(roster):  # ids off the roster, whose lines a second read names
        _input_stage("indicators", read_columns, indicators_path, [Column(
            "professor_id", CODE, "unknown professor_id {!r}", codes=dict.fromkeys(roster.ids, 0))])
    fss, inactive = fss[rows], n_pubs[rows] == 0
    ages = covariates["age"]
    histograms = {name: _input_stage("age-bin-width", distribution_histogram, values,
                                     age_bin_width)
                  for name, values in (("age_histogram.csv", ages),
                                       ("appointment_age_histogram.csv",
                                        ages - covariates["seniority"]))}

    out = _out_dir(out_path)
    tables = _compute_stage("descriptives", descriptive_table, roster, covariates,
                            inactive, totals, fmt)
    desc_name = f"descriptives.{'txt' if fmt == 'text' else 'csv'}"
    (out / desc_name).write_text(tables, encoding="utf-8")
    for name, bins in histograms.items():
        (out / name).write_text(histogram_csv(bins), encoding="utf-8")

    cvs = group_coefficient_of_variation({roster.sds_names[c]: fss[roster.sds == c]
                                          for c in sorted(set(roster.sds.tolist()))})
    write_csv(out / "fss_cv_by_sds.csv", ["sds", "coefficient_of_variation"],
              [list(cvs), list(cvs.values())])

    click.echo(f"reported on {len(roster)} professors across "
               f"{len(set(roster.uda.tolist()))} discipline(s)")
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
