"""The vectorised covariates and scoring pass against the per-professor oracle, exactly."""

import itertools
import json
import logging
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import (make_corpus, make_professor, make_publication, make_roster, plain,
                     professors, records, years)
from resperf.cohort import cohort_percentiles
from resperf.corpus import (COAUTHOR_NAME, DOC_TYPE, UNIVERSITY_TYPES, derive_covariates,
                            ingest_publications, write_publications)
from resperf.credit import ConventionMap
from resperf.indicators import MissingCellError, build_scaling_table, compute_scores
from resperf.sim import SimConfig, generate_cohort

WINDOW = (2006, 2010)
CENSUS = date(2010, 12, 31)


def same_percentiles(got, want):
    return np.array_equal(got, want, equal_nan=True)


def lenient_records():
    """Unknown IFs, an IF-less cell, a zero-IF cell, shared bylines, old years."""
    rng = np.random.default_rng(41)
    people = [make_professor(f"P{i}", sds=("MAT/01", "BIO/05")[i % 2],
                             uda=("MAT", "BIO")[i % 2]) for i in range(12)]
    people[3] = make_professor("P3", sds="MAT/01", uda="MAT",
                               span=(date(2008, 7, 2), date(2010, 12, 31)))
    pubs = []
    for j in range(400):
        year = int(rng.integers(2004, 2011))
        category = str(rng.choice(["MAT/01", "BIO/05", "FIS/01"]))
        if (year, category) == (2009, "FIS/01"):
            journal_if = None                                  # IF-less cell
        elif (year, category) == (2007, "FIS/01"):
            journal_if = 0.0                                   # zero-mean cell
        elif rng.random() < 0.2:
            journal_if = None
        else:
            journal_if = float(np.round(rng.lognormal(0.5, 0.4), 3))
        n_auth = int(rng.integers(1, 7))
        profs = rng.choice(12, size=min(n_auth, int(rng.integers(1, 3))), replace=False)
        byline = [(f"P{k}", f"U{int(rng.integers(0, 4))}") for k in profs]
        byline += [(f"X{j}_{k}", f"U{int(rng.integers(0, 6))}")
                   for k in range(n_auth - len(byline))]
        order = rng.permutation(len(byline))
        pubs.append(make_publication(
            f"W{j:03d}", year, category, journal_if,
            0 if rng.random() < 0.3 else int(rng.integers(1, 50)),
            byline=[byline[k] for k in order]))
    return people, pubs


def lenient_world():
    people, pubs = lenient_records()
    roster = make_roster(people)
    return roster, make_corpus(pubs, roster.ids)


def messages(caplog):
    """The skip lines logged by ``resperf.indicators``; a record may hold many."""
    return [line for r in caplog.records if r.name == "resperf.indicators"
            for line in r.getMessage().split("\n")]


class TestOracleEquality:
    def test_tiny_world(self, tiny_world):
        roster, corpus = tiny_world
        for conventions in (ConventionMap(), ConventionMap(global_override="alphabetical")):
            got = compute_scores(roster, corpus, conventions, WINDOW, years(roster, WINDOW))
            want = oracle.roster_scores(roster, corpus, conventions, WINDOW)
            assert plain(got) == plain(want)
            assert same_percentiles(cohort_percentiles(roster, got),
                                    oracle.cohort_percentiles(roster, want))

    def test_default_sim_cohort(self):
        config = SimConfig()
        roster, corpus = generate_cohort(config)
        assert len(roster) == 2000
        covariates = derive_covariates(roster, CENSUS, WINDOW)
        assert plain(covariates) == plain(oracle_covariates(roster, CENSUS, WINDOW))
        got = compute_scores(roster, corpus, config.conventions(), WINDOW, covariates["t"])
        want = oracle.roster_scores(roster, corpus, config.conventions(), WINDOW)
        assert plain(got) == plain(want)
        assert same_percentiles(cohort_percentiles(roster, got),
                                oracle.cohort_percentiles(roster, want))

    def test_lenient_corpus_scores_and_warnings(self, caplog):
        roster, corpus = lenient_world()
        ifbar = build_scaling_table(corpus)[1]
        assert np.isnan(ifbar[(corpus.year == 2009)
                              & (corpus.category == corpus.categories.index("FIS/01"))]).all()
        with caplog.at_level(logging.WARNING, logger="resperf.indicators"):
            got = compute_scores(roster, corpus, ConventionMap(), WINDOW, years(roster, WINDOW))
            ours = messages(caplog)
            caplog.clear()
            want = oracle.roster_scores(roster, corpus, ConventionMap(), WINDOW)
            theirs = messages(caplog)
        assert plain(got) == plain(want)
        assert same_percentiles(cohort_percentiles(roster, got),
                                oracle.cohort_percentiles(roster, want))
        assert ours == theirs
        assert any("unknown impact factor" in m for m in ours)
        assert any("no impact-factor scaling cell" in m for m in ours)

    @pytest.mark.parametrize("reversed_roster", [False, True])
    def test_strict_raises_the_oracle_message(self, reversed_roster):
        """The first professor, in roster order, with a skipped publication names it."""
        roster, corpus = lenient_world()
        if reversed_roster:
            roster = make_roster(professors(roster)[::-1])
        with pytest.raises(MissingCellError) as ours:
            compute_scores(roster, corpus, ConventionMap(), WINDOW,
                           years(roster, WINDOW), strict=True)
        with pytest.raises(MissingCellError) as theirs:
            oracle.roster_scores(roster, corpus, ConventionMap(), WINDOW, strict=True)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value).startswith(f"{roster.ids[0]}: ")

    def test_idle_professor_reported_in_roster_order(self):
        roster, corpus = lenient_world()
        profs = professors(roster)
        for at in (0, 11):
            idle = make_professor(profs[at].id, span=(date(2011, 1, 1), date(2012, 1, 1)))
            crew = make_roster(profs[:at] + [idle] + profs[at + 1:])
            for strict in (False, True):
                with pytest.raises(ValueError) as ours:
                    compute_scores(crew, corpus, ConventionMap(), WINDOW,
                                   years(crew, WINDOW), strict)
                with pytest.raises(ValueError) as theirs:
                    oracle.roster_scores(crew, corpus, ConventionMap(), WINDOW, strict)
                assert str(ours.value) == str(theirs.value)


def oracle_covariates(roster, census, window):
    """Covariate columns from the scalar oracle, one professor at a time."""
    rows = [oracle.derive_covariates(p, census, window) for p in professors(roster)]
    return {name: [row[name] for row in rows] for name in rows[0]}


LEAP_DAYS = [date(year, 2, 29) for year in range(1932, 2012, 4)]
FEB_28 = [date(year, 2, 28) for year in range(1990, 2031) if year % 4]


@st.composite
def roster_and_census(draw):
    """Professors with Feb-29 births and appointments among random days, active
    spans that cut the window's edges, and a census date that is often Feb 28
    of a non-leap year; the census follows every birth and appointment."""
    census = draw(st.sampled_from(FEB_28) | st.dates(date(1990, 1, 1), date(2030, 12, 31)))
    first = draw(st.integers(census.year - 8, census.year))
    window = (first, draw(st.integers(first, census.year + 2)))
    edges = [date(window[0], 1, 1), date(window[1], 12, 31)]
    day = st.sampled_from(LEAP_DAYS) | st.dates(date(1930, 1, 1), date(1990, 12, 31))
    near_edge = st.builds(lambda edge, shift: edge + timedelta(days=shift),
                          st.sampled_from(edges + LEAP_DAYS[-3:]), st.integers(-400, 400))
    profs = []
    for i in range(draw(st.integers(1, 12))):
        birth = draw(day.filter(lambda d: d < census))
        appointed = draw((st.sampled_from(LEAP_DAYS) | st.dates(birth, census)).filter(
            lambda d, birth=birth: birth <= d <= census))
        span = tuple(sorted([draw(near_edge), draw(near_edge)])) if draw(st.booleans()) \
            else None
        profs.append(make_professor(
            f"P{i}", gender=draw(st.sampled_from(["male", "female"])), birth=birth,
            appointed=appointed, university_type=draw(st.sampled_from(UNIVERSITY_TYPES)),
            span=span))
    return profs, census, window


class TestCovariateOracle:
    @given(case=roster_and_census())
    @settings(deadline=None, max_examples=300)
    def test_every_field_equals_the_scalar_oracle(self, case):
        profs, census, window = case
        roster = make_roster(profs)
        try:
            want = oracle_covariates(roster, census, window)
        except ValueError:  # a span outside the window: both must refuse it
            with pytest.raises(ValueError, match="no working years"):
                derive_covariates(roster, census, window)
            return
        assert plain(derive_covariates(roster, census, window)) == want


def decoded(corpus):
    """Every column with codes replaced by the strings they stand for."""
    return {
        "ids": list(corpus.ids), "year": corpus.year.tolist(),
        "category": [corpus.categories[c] for c in corpus.category],
        "citations": corpus.citations.tolist(),
        "impact": [None if math.isnan(x) else x for x in corpus.impact.tolist()],
        "n_authors": corpus.n_authors.tolist(), "shared": corpus.shared.tolist(),
        "pub": corpus.pub.tolist(), "position": corpus.position.tolist(),
        "author": corpus.author.tolist(),
        "university": [corpus.universities[c] for c in corpus.university],
    }


class TestRoundTrip:
    def test_sim_corpus_through_csv_and_jsonl(self, tmp_path):
        roster, corpus = generate_cohort(SimConfig(n_professors=300, seed=77))
        csv_path = tmp_path / "pubs.csv"
        write_publications(csv_path, corpus, roster.ids)
        jsonl_path = tmp_path / "pubs.jsonl"
        names = map(COAUTHOR_NAME.format, itertools.count(1))
        jsonl_path.write_text("".join(json.dumps({
            "id": p.id, "year": p.year, "subject_category": p.subject_category,
            "journal_if": p.journal_if, "citations": p.citations,
            "doc_type": DOC_TYPE,
            "byline": [f"{next(names) if a is None else a}@{u}" for a, u in p.byline]}) + "\n"
            for p in records(corpus, roster.ids)))
        rows = dict(zip(roster.ids, range(len(roster))))
        want = decoded(corpus)
        assert decoded(ingest_publications(csv_path, rows)) == want
        assert decoded(ingest_publications(jsonl_path, rows)) == want
        assert (records(ingest_publications(csv_path, rows), roster.ids)
                == records(corpus, roster.ids))
