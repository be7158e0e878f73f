"""Field-normalized indicators against hand computations and brute force."""

import logging
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest

from helpers import (make_corpus, make_professor, make_publication, make_roster,
                     professors, tiny_publications, years)
from resperf import indicators
from resperf.credit import (ALPHABETICAL, POSITION_WEIGHTED, ConventionMap,
                            byline_weights)
from resperf.indicators import (MissingCellError, build_scaling_table,
                                compute_scores)

WINDOW = (2006, 2010)
ALPHA = ConventionMap(global_override=ALPHABETICAL)


def score(prof, pubs, conventions=ALPHA, window=WINDOW, strict=False):
    """compute_scores of a one-professor roster over the records ``pubs``,
    as a record of Python scalars (an undefined IA or IJ is None)."""
    roster = make_roster([prof])
    return row(compute_scores(roster, make_corpus(pubs, roster.ids), conventions, window,
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
    return roster, pubs


def cell_means(pubs):
    """Each publication's (cbar, ifbar) from build_scaling_table, None for NaN."""
    return [tuple(None if np.isnan(v) else v for v in pair)
            for pair in zip(*(a.tolist() for a in build_scaling_table(make_corpus(pubs, ()))))]


class TestScalingTable:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        _, pubs = random_corpus(rng)

        cells = {}
        for pub in pubs:
            cells.setdefault((pub.year, pub.subject_category), []).append(pub)
        want = {}
        for key, members in cells.items():
            cited = [p.citations for p in members if p.citations > 0]
            known = [p.journal_if for p in members if p.journal_if is not None]
            want[key] = (sum(cited) / len(cited) if cited else None,
                         sum(known) / len(known) if known else None)
        assert cell_means(pubs) == [want[p.year, p.subject_category]
                                      for p in pubs]

    def test_empty_corpus_gives_empty_arrays(self):
        cbar, ifbar = build_scaling_table(make_corpus((), ()))
        assert cbar.shape == ifbar.shape == (0,)

    def test_cell_with_only_uncited_publications(self):
        assert cell_means([make_publication(citations=0,
                                            journal_if=None)]) == [(None, None)]


def one_cell_world():
    """One professor, one cited pub (c=10, f=1/2) in a cell with mean 5."""
    prof = make_professor("P1")
    pubs = [
        make_publication("W1", citations=10, byline=(("P1", "U1"), ("X1", "U2"))),
        make_publication("W2", citations=2, byline=(("X2", "U3"),)),
        make_publication("W3", citations=3, byline=(("X3", "U4"),)),
    ]
    return prof, pubs


class TestFss:
    def test_hand_computed_value(self):
        prof, pubs = one_cell_world()
        assert cell_means(pubs)[0][0] == 5.0
        # (1/5) * (10/5) * (1/2) = 0.2, exactly representable
        assert score(prof, pubs).fss == 0.2

    def test_additive_over_publications(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", citations=10, byline=(("P1", "U1"), ("X1", "U2"))),
                make_publication("W2", citations=2, byline=(("X2", "U3"),)),
                make_publication("W3", citations=3, byline=(("X3", "U4"),)),
                make_publication("W4", year=2009, citations=6, byline=(("P1", "U1"),))]
        # second cell has a single cited pub, ratio 1, full credit
        assert score(prof, pubs).fss == pytest.approx(
            (10 / 5 * 0.5 + 1.0) / 5, abs=1e-15)

    def test_uncited_publications_contribute_zero(self):
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", citations=0, byline=(("P1", "U1"),)),
            make_publication("W2", citations=4, byline=(("X1", "U2"),))]
        assert score(prof, pubs).fss == 0.0

    def test_window_filters_publications(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", year=2005, citations=9,
                                 byline=(("P1", "U1"),))]
        assert score(prof, pubs).fss == 0.0
        assert score(prof, pubs, window=(2005, 2009)).fss > 0.0

    def test_position_weighted_convention_applied(self):
        prof = make_professor("P1", sds="BIO/05", uda="BIO")
        pubs = [
            make_publication("W1", citations=5,
                             byline=(("P1", "U1"), ("X1", "U2"), ("X2", "U1"))),
            make_publication("W2", citations=5, byline=(("X3", "U3"),))]
        got = score(prof, pubs, ConventionMap()).fss
        assert got == pytest.approx((5 / 5) * 0.40 / 5, abs=1e-15)

    def test_fractional_t_scales_rate(self):
        span = (date(2008, 7, 2), date(2010, 12, 31))
        prof = make_professor("P1", span=span)
        pubs = [make_publication("W1", year=2009, citations=4,
                                 byline=(("P1", "U1"),))]
        assert score(prof, pubs).fss == pytest.approx(
            1.0 / 2.5, abs=1e-15)

    def test_scale_invariance_within_cell(self):
        rng = np.random.default_rng(5)
        roster, pubs = random_corpus(rng)
        base = {p.id: score(p, pubs).fss for p in roster}
        target = (2008, "MAT/01")
        scaled = [
            pub if (pub.year, pub.subject_category) != target
            else make_publication(pub.id, pub.year, pub.subject_category,
                                  pub.journal_if, pub.citations * 7, pub.byline)
            for pub in pubs]
        for p in roster:
            got = score(p, scaled).fss
            assert abs(got - base[p.id]) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        roster, pubs = random_corpus(rng)
        conventions = ConventionMap(global_override=POSITION_WEIGHTED)
        cbars = {pub.id: cbar for pub, (cbar, _) in zip(pubs, cell_means(pubs))}
        for prof in roster:
            expected = 0.0
            for pub in pubs:
                ids = [a for a, _ in pub.byline]
                if prof.id not in ids or not WINDOW[0] <= pub.year <= WINDOW[1]:
                    continue
                if pub.citations == 0:
                    continue
                cbar = cbars[pub.id]
                shared = pub.byline[0][1] == pub.byline[-1][1]
                f = byline_weights(len(ids), POSITION_WEIGHTED, shared)[ids.index(prof.id)]
                expected += pub.citations / cbar * f
            expected /= 5.0
            got = score(prof, pubs, conventions).fss
            assert got == pytest.approx(expected, abs=1e-12)

    def test_order_permutation_invariance(self):
        rng = np.random.default_rng(21)
        roster, pubs = random_corpus(rng, n_pubs=60)
        perm = rng.permutation(len(pubs))
        shuffled = [pubs[i] for i in perm]
        for prof in roster:
            assert (score(prof, shuffled).fss
                    == pytest.approx(score(prof, pubs).fss, abs=1e-12))

    def test_zero_working_years_rejected(self):
        prof = make_professor("P1", span=(date(2011, 1, 1), date(2011, 6, 1)))
        pubs = [make_publication()]
        with pytest.raises(ValueError, match="no working years"):
            score(prof, pubs).fss


class TestMissingCells:
    def scoring_setup(self):
        """P1's cited W1 sits in a cell whose known impact factors are all 0."""
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", category="XX/01", citations=3, journal_if=0.0,
                             byline=(("P1", "U1"),)),
            make_publication("Wz", category="XX/01", citations=0, journal_if=0.0,
                             byline=(("X1", "U2"),))]
        return prof, pubs

    def test_lenient_skips_and_warns(self, caplog):
        prof, pubs = self.scoring_setup()
        with caplog.at_level(logging.WARNING):
            scores = score(prof, pubs)
        assert (scores.fss, scores.ia, scores.ij) == (0.2, 1.0, None)
        assert [r.getMessage() for r in caplog.records] == [
            "P1: skipping W1, no impact-factor scaling cell for (2008, XX/01)"]

    def unknown_ifs(self, n):
        return ([make_publication(f"W{i}", journal_if=None, byline=(("P1", "U1"),))
                 for i in range(n)]
                + [make_publication("Wz", byline=(("X1", "U2"),))])

    def test_skips_logged_in_records_of_at_most_skips_per_record_lines(
            self, caplog, monkeypatch):
        monkeypatch.setattr(indicators, "SKIPS_PER_RECORD", 3)
        with caplog.at_level(logging.WARNING):
            assert score(make_professor("P1"), self.unknown_ifs(7)).ij is None
        assert [r.getMessage().split("\n") for r in caplog.records] == [
            [f"P1: skipping W{i}, unknown impact factor" for i in block]
            for block in ((0, 1, 2), (3, 4, 5), (6,))]

    def test_no_skip_message_built_when_warnings_are_off(self, caplog, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("skip message built for a disabled logger")

        monkeypatch.setattr(indicators, "_skip_message", unexpected)
        with caplog.at_level(logging.ERROR, logger="resperf.indicators"):
            assert score(make_professor("P1"), self.unknown_ifs(3)).ij is None
        assert caplog.records == []

    def test_strict_raises(self):
        prof, pubs = self.scoring_setup()
        with pytest.raises(MissingCellError) as info:
            score(prof, pubs, strict=True)
        assert str(info.value) == "P1: no impact-factor scaling cell for (2008, 'XX/01')"


class TestP:
    def test_counts_per_working_year(self):
        prof = make_professor("P1")
        pubs = [make_publication(f"W{i}", year=2006 + i,
                                 byline=(("P1", "U1"),)) for i in range(5)]
        assert score(prof, pubs).p == 1.0

    def test_fractional_t(self):
        prof = make_professor("P1", span=(date(2008, 7, 2), date(2010, 12, 31)))
        pubs = [make_publication(f"W{i}", year=2009, byline=(("P1", "U1"),))
                for i in range(5)]
        assert score(prof, pubs).p == 2.0

    def test_uncited_count_too(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", citations=0, byline=(("P1", "U1"),)),
                make_publication("W2", citations=3, byline=(("P1", "U1"),))]
        assert score(prof, pubs).p == 0.4


class TestIa:
    def test_uncited_dilutes_mean(self):
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", citations=0, byline=(("P1", "U1"),)),
            make_publication("W2", citations=4, byline=(("P1", "U1"),))]
        # ratios are 0 and 4/4; the uncited pub still counts in N
        assert score(prof, pubs).ia == 0.5

    def test_credit_shares_ignored(self):
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", citations=6, byline=(("P1", "U1"), ("X1", "U2"),
                                                        ("X2", "U3"))),
            make_publication("W2", citations=2, byline=(("X3", "U4"),))]
        assert score(prof, pubs).ia == 6 / 4

    def test_no_publications_is_none(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", byline=(("X1", "U2"),))]
        assert score(prof, pubs).ia is None


class TestIj:
    def test_multiplicity_weighted_cell_mean(self):
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", journal_if=2.0, byline=(("P1", "U1"),)),
            make_publication("W2", journal_if=2.0, byline=(("X1", "U2"),)),
            make_publication("W3", journal_if=8.0, byline=(("X2", "U3"),))]
        # cell mean is (2+2+8)/3 = 4 (each publication counts, not each journal)
        assert score(prof, pubs).ij == 0.5

    def test_unknown_if_skipped_leniently(self, caplog):
        prof = make_professor("P1")
        pubs = [
            make_publication("W1", journal_if=None, byline=(("P1", "U1"),)),
            make_publication("W2", journal_if=3.0, byline=(("P1", "U1"),)),
            make_publication("W3", journal_if=1.0, byline=(("X1", "U2"),))]
        with caplog.at_level(logging.WARNING):
            assert score(prof, pubs).ij == 3.0 / 2.0
        assert "unknown impact factor" in caplog.text

    def test_unknown_if_strict_raises(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", journal_if=None,
                                 byline=(("P1", "U1"),)),
                make_publication("W2", journal_if=2.0,
                                 byline=(("X1", "U2"),))]
        with pytest.raises(MissingCellError, match="no impact factor"):
            score(prof, pubs, strict=True).ij

    def test_all_unknown_is_none(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", journal_if=None,
                                 byline=(("P1", "U1"),))]
        assert score(prof, pubs).ij is None


class TestComputeScores:
    def test_inactive_professor(self):
        prof = make_professor("P1")
        pubs = [make_publication("W1", byline=(("X1", "U2"),))]
        s = score(prof, pubs)
        assert s.n_pubs == 0
        assert (s.fss, s.p, s.ia, s.ij, s.n_pubs) == (0.0, 0.0, None, None, 0)

    def test_agrees_with_individual_functions(self, tiny_world):
        # a roster's scores are those of each professor scored alone
        roster, corpus = tiny_world
        conventions = ConventionMap()
        scores = compute_scores(roster, corpus, conventions, WINDOW, years(roster, WINDOW))
        for i, prof in enumerate(professors(roster)):
            s = row(scores, i)
            assert s == score(prof, tiny_publications(), conventions)
            assert s.n_pubs == np.count_nonzero(corpus.authored_by(WINDOW)[0] == i)
        assert set(scores) == {"FSS", "P", "IA", "IJ", "n_pubs"}
