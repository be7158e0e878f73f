"""Number formatting, table rendering, histograms, dispersion summaries."""

import csv
import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_professor, make_roster, parse_cell
from resperf.corpus import derive_covariates
from resperf.regress import FitResult
from resperf.report import (MAX_BINS, coefficient_of_variation, descriptive_table,
                            distribution_histogram, format_cell, format_number,
                            group_coefficient_of_variation, histogram_csv,
                            regression_table)


class TestFormatNumber:
    @pytest.mark.parametrize("value,expected", [
        (319.192, "319.192"),
        (1.09, "1.09"),
        (1.0, "1"),
        (0.0, "0"),
        (-5.746, "-5.746"),
        (1087.551, "1,087.551"),
        (475.5, "475.5"),
        (1234567.8999, "1,234,567.9"),
        (-0.0001, "0"),
        (float("nan"), "-"),
    ])
    def test_three_decimal_default(self, value, expected):
        assert format_number(value) == expected

    def test_four_decimal_mode(self):
        assert format_number(0.0392, 4) == "0.0392"
        assert format_number(0.039, 4) == "0.039"
        assert format_number(0.12345, 4) == "0.1235"


class TestCellRoundTrip:
    def test_format_cell(self):
        assert format_cell(319.192, 56.668) == "319.192 (56.668)"
        assert format_cell(-5.746, 1.09) == "-5.746 (1.09)"
        assert format_cell(-5.746, 1.09, -0.464) == "-5.746 (1.09) [-0.464]"

    def test_parse_cell(self):
        assert parse_cell("319.192 (56.668)") == (319.192, 56.668, None)
        assert parse_cell("-5.746 (1.09) [-0.464]") == (-5.746, 1.09, -0.464)
        assert parse_cell("1,087.551 (21.5)") == (1087.551, 21.5, None)
        with pytest.raises(ValueError):
            parse_cell("-")

    @given(coef=st.floats(min_value=-5000, max_value=5000),
           se=st.floats(min_value=0.001, max_value=500),
           ame=st.one_of(st.none(), st.floats(min_value=-50, max_value=50)))
    @settings(deadline=None, max_examples=200)
    def test_round_trip_within_printed_precision(self, coef, se, ame):
        got_c, got_s, got_a = parse_cell(format_cell(coef, se, ame))
        assert got_c == pytest.approx(coef, abs=5.001e-4)
        assert got_s == pytest.approx(se, abs=5.001e-4)
        if ame is None:
            assert got_a is None
        else:
            assert got_a == pytest.approx(ame, abs=5.001e-4)


def stub_fit(**overrides):
    base = dict(
        dependent="FSS",
        terms=("Intercept", "Age", "Seniority"),
        coefficients={"Intercept": 319.192, "Age": -5.746, "Seniority": 2.13},
        robust_se={"Intercept": 56.668, "Age": 1.09, "Seniority": 0.75},
        ame={"Age": -0.464, "Seniority": 0.362},
        pseudo_r2=0.0392,
        n=1621,
        converged=True,
    )
    base.update(overrides)
    return FitResult(**base)


class TestRegressionTable:
    def test_character_exact_cells(self):
        text = regression_table({"Total": stub_fit()})
        lines = text.splitlines()
        by_label = {line.split("  ")[0].strip(): line for line in lines}
        assert "319.192 (56.668)" in by_label["Intercept"]
        assert "-5.746 (1.09)" in by_label["Age"]

    def test_row_label_order(self):
        text = regression_table({"Total": stub_fit()})
        labels = [line.split("  ")[0].strip() for line in text.splitlines()[2:]]
        assert labels == ["Intercept", "Age", "Age²", "Age³", "Seniority",
                          "Gender", "Polytechnic", "Private", "Advanced Studies",
                          "Pseudo R-squared", "N"]

    def test_absent_terms_and_summary_rows(self):
        text = regression_table({"Total": stub_fit()})
        rows = {line.split("  ")[0].strip(): line for line in text.splitlines()}
        assert rows["Age³"].strip().endswith("-")
        assert rows["Pseudo R-squared"].strip().endswith("0.0392")
        assert rows["N"].strip().endswith("1,621")

    def test_ame_suffix_present_by_default(self):
        text = regression_table({"Total": stub_fit()})
        assert "[-0.464]" in text

    def test_multiple_columns_in_mapping_order(self):
        fits = {"Total": stub_fit(), "MAT": stub_fit(n=400)}
        text = regression_table(fits)
        header = text.splitlines()[0]
        assert header.index("Total") < header.index("MAT")
        csv_text = regression_table(fits, fmt="csv")
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == ["", "Total", "MAT"]
        assert rows[1][0] == "Intercept"
        assert rows[-1] == ["N", "1,621", "400"]

    def test_csv_cells_parse_back(self):
        csv_text = regression_table({"Total": stub_fit()}, fmt="csv")
        rows = {r[0]: r[1] for r in csv.reader(io.StringIO(csv_text))}
        assert parse_cell(rows["Intercept"]) == (319.192, 56.668, None)
        assert parse_cell(rows["Age"]) == (-5.746, 1.09, -0.464)

    def test_unconverged_fit_rejected(self):
        with pytest.raises(ValueError, match="did not converge"):
            regression_table({"Total": stub_fit(converged=False)})

    def test_no_fits_rejected(self):
        with pytest.raises(ValueError, match="no fits"):
            regression_table({})

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            regression_table({"Total": stub_fit()}, fmt="latex")


def small_roster():
    return make_roster([
        make_professor("P1", birth=date(1950, 6, 30), appointed=date(1985, 3, 1),
                       sds="MAT/01", uda="MAT"),
        make_professor("P2", birth=date(1948, 1, 15), appointed=date(2005, 6, 1),
                       sds="MAT/02", uda="MAT"),
        make_professor("P3", birth=date(1960, 9, 9), appointed=date(1995, 2, 1),
                       sds="BIO/05", uda="BIO"),
    ])


class TestDescriptiveTable:
    CENSUS = date(2010, 12, 31)
    WINDOW = (2006, 2010)

    def build(self, inactive=np.zeros(3, dtype=bool), totals=None, fmt="csv"):
        roster = small_roster()
        covs = derive_covariates(roster, self.CENSUS, self.WINDOW)
        return descriptive_table(roster, covs, inactive, totals, fmt=fmt), roster, covs

    def test_headcounts_and_means(self):
        text, roster, covs = self.build()
        tables = text.split("\n\n")
        rows = {r[0]: r for r in csv.reader(io.StringIO(tables[0]))}
        assert rows["MAT"][1] == "2" and rows["BIO"][1] == "1"
        assert rows["Total"][1] == "3"
        mat_ages = [covs["age"][0], covs["age"][1]]
        assert rows["MAT"][3] == f"{np.mean(mat_ages):.2f}"
        assert rows["MAT"][5] == "0.00"  # nobody inactive

    def test_inactive_share_with_scores(self):
        text, _, _ = self.build(inactive=np.array([False, True, False]))
        rows = {r[0]: r for r in csv.reader(io.StringIO(text.split("\n\n")[0]))}
        assert rows["MAT"][5] == "50.00"
        assert rows["Total"][5] == f"{100 / 3:.2f}"

    def test_coverage_against_population_totals(self):
        text, _, _ = self.build(totals={"MAT": 4, "BIO": 1})
        rows = {r[0]: r for r in csv.reader(io.StringIO(text.split("\n\n")[0]))}
        assert rows["MAT"][2] == "50.00"
        assert rows["BIO"][2] == "100.00"
        assert rows["Total"][2] == "60.00"  # 3 of 5

    def test_missing_total_falls_back_to_roster_count(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            text, _, _ = self.build(totals={"MAT": 4, "PHY": 9})
        rows = {r[0]: r for r in csv.reader(io.StringIO(text.split("\n\n")[0]))}
        assert rows["Total"][2] == "60.00"  # 3 of (4 + 1 fallback)
        assert "PHY" in caplog.text

    def test_appointment_age_shares(self):
        text, _, _ = self.build()
        second = text.split("\n\n")[1]
        rows = {r[0]: r for r in csv.reader(io.StringIO(second))}
        # P1 appointed at 34 (early), P2 at 57 (late), P3 at 34 (early)
        assert rows["MAT"][1] == "50.00" and rows["MAT"][2] == "50.00"
        assert rows["BIO"][1] == "100.00" and rows["BIO"][2] == "0.00"
        assert rows["Total"][1] == f"{200 / 3:.2f}"

    def test_boundary_appointment_ages_excluded(self):
        # exactly 41 and exactly 55 whole years are neither early nor late
        roster = make_roster([make_professor("E1", birth=date(1950, 1, 1),
                                             appointed=date(1991, 1, 1)),
                              make_professor("E2", birth=date(1950, 1, 1),
                                             appointed=date(2005, 1, 1))])
        covs = derive_covariates(roster, self.CENSUS, self.WINDOW)
        text = descriptive_table(roster, covs, np.zeros(2, dtype=bool), fmt="csv")
        rows = {r[0]: r for r in csv.reader(io.StringIO(text.split("\n\n")[1]))}
        assert rows["Total"][1] == "0.00" and rows["Total"][2] == "0.00"

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="empty roster"):
            descriptive_table(make_roster([]), {}, np.zeros(0, dtype=bool))

    def test_text_format_is_aligned(self):
        text, _, _ = self.build(fmt="text")
        lines = text.split("\n\n")[0].splitlines()
        assert lines[0].startswith("UDA")
        assert set(lines[1]) <= {"-", " "}


class TestHistogram:
    def test_unit_width_counts(self):
        bins = distribution_histogram([60.0, 60.4, 61.0], 1.0)
        assert bins == [(60.0, 2, 2 / 3), (61.0, 1, 1 / 3)]

    def test_bins_align_to_width_multiples(self):
        bins = distribution_histogram([7.2, 9.9], 2.5)
        assert [b[0] for b in bins] == [5.0, 7.5]

    def test_gap_bins_have_zero_count(self):
        bins = distribution_histogram([1.0, 9.0], 1.0)
        assert len(bins) == 9
        assert all(count == 0 for _, count, _ in bins[1:-1])

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(30, 80, 500).tolist()
        bins = distribution_histogram(vals, 5.0)
        assert sum(c for _, c, _ in bins) == 500
        assert sum(s for _, _, s in bins) == pytest.approx(1.0, abs=1e-12)

    def test_left_closed_boundaries(self):
        bins = distribution_histogram([10.0, 15.0], 5.0)
        assert bins[0] == (10.0, 1, 0.5)
        assert bins[-1] == (15.0, 1, 0.5)

    @pytest.mark.parametrize("values,width,needle", [
        ([], 1.0, "no values"),
        ([1.0], 0.0, "positive"),
        ([1.0], -2.0, "positive"),
        ([1.0, float("nan")], 1.0, "NaN"),
        ([0.0, float(MAX_BINS)], 1.0, "too small"),
        ([40.0, 41.0], 1e-300, "too small"),
        ([40.0], 1e-300, "too small"),
    ])
    def test_invalid_inputs(self, values, width, needle):
        with pytest.raises(ValueError, match=needle):
            distribution_histogram(values, width)

    def test_max_bins_allowed(self):
        assert len(distribution_histogram([0.0, MAX_BINS - 1.0], 1.0)) == MAX_BINS

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(0, 200), min_size=1, max_size=40),
           st.sampled_from([0.1, 0.25, 1.0, 2.5, 3.0, 5.0, 7.3]))
    def test_matches_a_loop_over_bins(self, values, width):
        idx = np.floor(np.asarray(values) / width).astype(int)
        want = [(left * width, int((idx == left).sum()), int((idx == left).sum()) / len(values))
                for left in range(idx.min(), idx.max() + 1)]
        assert distribution_histogram(values, width) == want

    def test_csv_output(self):
        text = histogram_csv(distribution_histogram([60.0, 60.4, 61.0], 1.0))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["bin_left", "count", "share"]
        assert rows[1] == ["60.0", "2", repr(2 / 3)]


class TestCoefficientOfVariation:
    def test_hand_value(self):
        assert coefficient_of_variation([2.0, 4.0, 6.0]) == 0.5

    def test_errors(self):
        with pytest.raises(ValueError, match="two values"):
            coefficient_of_variation([1.0])
        with pytest.raises(ValueError, match="zero mean"):
            coefficient_of_variation([-1.0, 1.0])

    def test_group_form_skips_undefined(self):
        groups = {"a": [2.0, 4.0, 6.0], "b": [5.0], "c": [-1.0, 1.0]}
        got = group_coefficient_of_variation(groups)
        assert got == {"a": 0.5}

    def test_group_form_sorted_keys(self):
        groups = {"z": [1.0, 2.0], "a": [3.0, 5.0]}
        assert list(group_coefficient_of_variation(groups)) == ["a", "z"]

    def test_matches_numpy_definition(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(1, 9, 40)
        want = float(np.std(vals, ddof=1) / np.mean(vals))
        assert coefficient_of_variation(vals.tolist()) == pytest.approx(want, rel=1e-12)
