"""Field-normalized indicators against hand computations and brute force."""

import logging
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest

from helpers import (make_corpus, make_professor, make_publication, make_roster,
                     professors, records, years)
from resperf.credit import (ALPHABETICAL, POSITION_WEIGHTED, ConventionMap,
                            byline_weights)
from resperf.indicators import (MissingCellError, build_scaling_table,
                                compute_scores)

WINDOW = (2006, 2010)
ALPHA = ConventionMap(global_override=ALPHABETICAL)


def score(prof, corpus, table=None, conventions=ALPHA, window=WINDOW, strict=False):
    """compute_scores of a one-professor roster, as a record of Python scalars
    (an undefined IA or IJ is None); ``table`` defaults to the corpus's."""
    table = build_scaling_table(corpus) if table is None else table
    roster = make_roster([prof])
    return row(compute_scores(roster, corpus, table, conventions, window,
                              years(roster, window), strict), 0)


def row(scores, i):
    """Professor ``i``'s scores from the score columns."""
    fss, p, ia, ij, n_pubs = (scores[c][i].item() for c in ("FSS", "P", "IA", "IJ", "n_pubs"))
    return Scores(fss, p, None if np.isnan(ia) else ia, None if np.isnan(ij) else ij, n_pubs)


class Scores(NamedTuple):
    fss: float
    p: float
    ia: float | None
    ij: float | None
    n_pubs: int


def random_corpus(rng, n_pubs=120, n_profs=8, years=(2006, 2010),
                  categories=("MAT/01", "BIO/05", "FIS/01")):
    pubs = []
    for i in range(n_pubs):
        n_auth = int(rng.integers(1, 6))
        owner = int(rng.integers(0, n_profs))
        pos = int(rng.integers(0, n_auth))
        byline = []
        for j in range(n_auth):
            if j == pos:
                byline.append((f"P{owner}", f"U{owner}"))
            else:
                byline.append((f"X{i}_{j}", f"U{int(rng.integers(0, 12))}"))
        pubs.append(make_publication(
            id=f"W{i:04d}",
            year=int(rng.integers(years[0], years[1] + 1)),
            category=str(rng.choice(categories)),
            journal_if=None if rng.random() < 0.15 else float(np.round(rng.lognormal(0.5, 0.4), 3)),
            citations=0 if rng.random() < 0.25 else int(rng.integers(1, 40)),
            byline=tuple(byline)))
    roster = [make_professor(f"P{i}", sds="MAT/01") for i in range(n_profs)]
    return roster, make_corpus(pubs)


class TestScalingTable:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        _, corpus = random_corpus(rng)
        table = build_scaling_table(corpus)

        cells = {}
        for pub in records(corpus):
            cells.setdefault((pub.year, pub.subject_category), []).append(pub)
        assert len(table) == len(cells)
        for (year, cat), members in cells.items():
            cited = [p.citations for p in members if p.citations > 0]
            known = [p.journal_if for p in members if p.journal_if is not None]
            want_c = sum(cited) / len(cited) if cited else None
            want_if = sum(known) / len(known) if known else None
            assert table.mean_citations(year, cat) == want_c
            assert table.mean_impact_factor(year, cat) == want_if

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_scaling_table(make_corpus(()))

    def test_absent_cell_is_none(self):
        table = build_scaling_table(make_corpus([make_publication()]))
        assert table.mean_citations(1999, "XX/99") is None
        assert table.cell(1999, "XX/99") is None

    def test_cell_with_only_uncited_publications(self):
        table = build_scaling_table(make_corpus([make_publication(citations=0,
                                                                  journal_if=None)]))
        assert table.mean_citations(2008, "MAT/01") is None
        assert table.mean_impact_factor(2008, "MAT/01") is None


def one_cell_world():
    """One professor, one cited pub (c=10, f=1/2) in a cell with mean 5."""
    prof = make_professor("P1")
    pubs = [
        make_publication("W1", citations=10, byline=(("P1", "U1"), ("X1", "U2"))),
        make_publication("W2", citations=2, byline=(("X2", "U3"),)),
        make_publication("W3", citations=3, byline=(("X3", "U4"),)),
    ]
    return prof, make_corpus(pubs)


class TestFss:
    def test_hand_computed_value(self):
        prof, corpus = one_cell_world()
        table = build_scaling_table(corpus)
        assert table.mean_citations(2008, "MAT/01") == 5.0
        # (1/5) * (10/5) * (1/2) = 0.2, exactly representable
        assert score(prof, corpus, table).fss == 0.2

    def test_additive_over_publications(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", citations=10, byline=(("P1", "U1"), ("X1", "U2"))),
                make_publication("W2", citations=2, byline=(("X2", "U3"),)),
                make_publication("W3", citations=3, byline=(("X3", "U4"),)),
                make_publication("W4", year=2009, citations=6, byline=(("P1", "U1"),))]
        corpus = make_corpus(pubs)
        table = build_scaling_table(corpus)
        # second cell has a single cited pub, ratio 1, full credit
        assert score(prof, corpus, table).fss == pytest.approx(
            (10 / 5 * 0.5 + 1.0) / 5, abs=1e-15)

    def test_uncited_publications_contribute_zero(self):
        prof = make_professor("P1")
        corpus = make_corpus([
            make_publication("W1", citations=0, byline=(("P1", "U1"),)),
            make_publication("W2", citations=4, byline=(("X1", "U2"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).fss == 0.0

    def test_window_filters_publications(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", year=2005, citations=9,
                                               byline=(("P1", "U1"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).fss == 0.0
        assert score(prof, corpus, table, window=(2005, 2009)).fss > 0.0

    def test_position_weighted_convention_applied(self):
        prof = make_professor("P1", sds="BIO/05", uda="BIO")
        corpus = make_corpus([
            make_publication("W1", citations=5,
                             byline=(("P1", "U1"), ("X1", "U2"), ("X2", "U1"))),
            make_publication("W2", citations=5, byline=(("X3", "U3"),))])
        table = build_scaling_table(corpus)
        got = score(prof, corpus, table, ConventionMap()).fss
        assert got == pytest.approx((5 / 5) * 0.40 / 5, abs=1e-15)

    def test_fractional_t_scales_rate(self):
        span = (date(2008, 7, 2), date(2010, 12, 31))
        prof = make_professor("P1", span=span)
        corpus = make_corpus([make_publication("W1", year=2009, citations=4,
                                               byline=(("P1", "U1"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).fss == pytest.approx(
            1.0 / 2.5, abs=1e-15)

    def test_scale_invariance_within_cell(self):
        rng = np.random.default_rng(5)
        roster, corpus = random_corpus(rng)
        table = build_scaling_table(corpus)
        base = {p.id: score(p, corpus, table).fss for p in roster}
        target = (2008, "MAT/01")
        scaled = make_corpus([
            pub if (pub.year, pub.subject_category) != target
            else make_publication(pub.id, pub.year, pub.subject_category,
                                  pub.journal_if, pub.citations * 7, pub.doc_type,
                                  pub.byline)
            for pub in records(corpus)])
        table2 = build_scaling_table(scaled)
        for p in roster:
            got = score(p, scaled, table2).fss
            assert abs(got - base[p.id]) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        roster, corpus = random_corpus(rng)
        table = build_scaling_table(corpus)
        conventions = ConventionMap(global_override=POSITION_WEIGHTED)
        for prof in roster:
            expected = 0.0
            for pub in records(corpus):
                ids = [a for a, _ in pub.byline]
                if prof.id not in ids or not WINDOW[0] <= pub.year <= WINDOW[1]:
                    continue
                if pub.citations == 0:
                    continue
                cbar = table.mean_citations(pub.year, pub.subject_category)
                shared = pub.byline[0][1] == pub.byline[-1][1]
                f = byline_weights(len(ids), POSITION_WEIGHTED, shared)[ids.index(prof.id)]
                expected += pub.citations / cbar * f
            expected /= 5.0
            got = score(prof, corpus, table, conventions).fss
            assert got == pytest.approx(expected, abs=1e-12)

    def test_order_permutation_invariance(self):
        rng = np.random.default_rng(21)
        roster, corpus = random_corpus(rng, n_pubs=60)
        table = build_scaling_table(corpus)
        pubs = records(corpus)
        perm = rng.permutation(len(pubs))
        shuffled = make_corpus([pubs[i] for i in perm])
        for prof in roster:
            assert (score(prof, shuffled, table).fss
                    == pytest.approx(score(prof, corpus, table).fss, abs=1e-12))

    def test_zero_working_years_rejected(self):
        prof = make_professor("P1", span=(date(2011, 1, 1), date(2011, 6, 1)))
        corpus = make_corpus([make_publication()])
        table = build_scaling_table(corpus)
        with pytest.raises(ValueError, match="no working years"):
            score(prof, corpus, table).fss


class TestMissingCells:
    def scoring_setup(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", category="XX/01", citations=3,
                                               byline=(("P1", "U1"),))])
        # scaling table built elsewhere, without the XX/01 cell
        table = build_scaling_table(make_corpus([make_publication(
            "Wz", citations=2, byline=(("X1", "U2"),))]))
        return prof, corpus, table

    def test_lenient_skips_and_warns(self, caplog):
        prof, corpus, table = self.scoring_setup()
        with caplog.at_level(logging.WARNING):
            assert score(prof, corpus, table).fss == 0.0
            assert score(prof, corpus, table).ia is None
        assert "no citation scaling cell" in caplog.text

    def test_strict_raises(self):
        prof, corpus, table = self.scoring_setup()
        with pytest.raises(MissingCellError, match="no citation scaling cell"):
            score(prof, corpus, table, strict=True).fss
        with pytest.raises(MissingCellError):
            score(prof, corpus, table, strict=True).ia
        with pytest.raises(MissingCellError):
            score(prof, corpus, table, strict=True).ij


class TestP:
    def test_counts_per_working_year(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication(f"W{i}", year=2006 + i,
                                               byline=(("P1", "U1"),)) for i in range(5)])
        assert score(prof, corpus).p == 1.0

    def test_fractional_t(self):
        prof = make_professor("P1", span=(date(2008, 7, 2), date(2010, 12, 31)))
        corpus = make_corpus([make_publication(f"W{i}", year=2009, byline=(("P1", "U1"),))
                              for i in range(5)])
        assert score(prof, corpus).p == 2.0

    def test_uncited_count_too(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", citations=0, byline=(("P1", "U1"),)),
                              make_publication("W2", citations=3, byline=(("P1", "U1"),))])
        assert score(prof, corpus).p == 0.4


class TestIa:
    def test_uncited_dilutes_mean(self):
        prof = make_professor("P1")
        corpus = make_corpus([
            make_publication("W1", citations=0, byline=(("P1", "U1"),)),
            make_publication("W2", citations=4, byline=(("P1", "U1"),))])
        table = build_scaling_table(corpus)
        # ratios are 0 and 4/4; the uncited pub still counts in N
        assert score(prof, corpus, table).ia == 0.5

    def test_credit_shares_ignored(self):
        prof = make_professor("P1")
        corpus = make_corpus([
            make_publication("W1", citations=6, byline=(("P1", "U1"), ("X1", "U2"),
                                                        ("X2", "U3"))),
            make_publication("W2", citations=2, byline=(("X3", "U4"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).ia == 6 / 4

    def test_no_publications_is_none(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", byline=(("X1", "U2"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).ia is None


class TestIj:
    def test_multiplicity_weighted_cell_mean(self):
        prof = make_professor("P1")
        corpus = make_corpus([
            make_publication("W1", journal_if=2.0, byline=(("P1", "U1"),)),
            make_publication("W2", journal_if=2.0, byline=(("X1", "U2"),)),
            make_publication("W3", journal_if=8.0, byline=(("X2", "U3"),))])
        table = build_scaling_table(corpus)
        # cell mean is (2+2+8)/3 = 4 (each publication counts, not each journal)
        assert score(prof, corpus, table).ij == 0.5

    def test_unknown_if_skipped_leniently(self, caplog):
        prof = make_professor("P1")
        corpus = make_corpus([
            make_publication("W1", journal_if=None, byline=(("P1", "U1"),)),
            make_publication("W2", journal_if=3.0, byline=(("P1", "U1"),)),
            make_publication("W3", journal_if=1.0, byline=(("X1", "U2"),))])
        table = build_scaling_table(corpus)
        with caplog.at_level(logging.WARNING):
            assert score(prof, corpus, table).ij == 3.0 / 2.0
        assert "unknown impact factor" in caplog.text

    def test_unknown_if_strict_raises(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", journal_if=None,
                                               byline=(("P1", "U1"),)),
                              make_publication("W2", journal_if=2.0,
                                               byline=(("X1", "U2"),))])
        table = build_scaling_table(corpus)
        with pytest.raises(MissingCellError, match="no impact factor"):
            score(prof, corpus, table, strict=True).ij

    def test_all_unknown_is_none(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", journal_if=None,
                                               byline=(("P1", "U1"),))])
        table = build_scaling_table(corpus)
        assert score(prof, corpus, table).ij is None


class TestComputeScores:
    def test_inactive_professor(self):
        prof = make_professor("P1")
        corpus = make_corpus([make_publication("W1", byline=(("X1", "U2"),))])
        table = build_scaling_table(corpus)
        s = score(prof, corpus, table)
        assert s.n_pubs == 0
        assert (s.fss, s.p, s.ia, s.ij, s.n_pubs) == (0.0, 0.0, None, None, 0)

    def test_agrees_with_individual_functions(self, tiny_world):
        # a roster's scores are those of each professor scored alone
        roster, corpus = tiny_world
        table = build_scaling_table(corpus)
        conventions = ConventionMap()
        scores = compute_scores(roster, corpus, table, conventions, WINDOW,
                                years(roster, WINDOW))
        for i, prof in enumerate(professors(roster)):
            s = row(scores, i)
            assert s == score(prof, corpus, table, conventions)
            assert s.n_pubs == corpus.authored_by([prof.id], WINDOW)[1].size
        assert set(scores) == {"FSS", "P", "IA", "IJ", "n_pubs"}
