"""Author credit weights: exact constants, edge cases, and sum properties."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resperf.corpus import IngestError
from resperf.credit import (ALPHABETICAL, CONVENTIONS, POSITION_WEIGHTED,
                            POSITION_WEIGHTED_UDAS, ConventionMap, CreditError,
                            byline_weights, fractional_contribution,
                            load_convention_map, write_convention_map)

# Float-exact expectations: every value below is produced by arithmetic that
# cannot round (0.2/2 == 0.1, 0.1/2 == 0.05, x/(x+x) == 0.5).
EXACT_POSITIONAL = {
    (1, True): [1.0],
    (1, False): [1.0],
    (2, True): [0.5, 0.5],
    (2, False): [0.5, 0.5],
    (3, True): [0.40, 0.20, 0.40],
    (4, True): [0.40, 0.10, 0.10, 0.40],
    (5, False): [0.30, 0.15, 0.10, 0.15, 0.30],
    (6, False): [0.30, 0.15, 0.05, 0.05, 0.15, 0.30],
}


def expected_positional(n, shared):
    """Role-based oracle: named shares by priority, pool split, renormalize."""
    if shared:
        roles = [("first", 0, 0.40), ("last", n - 1, 0.40)]
        pool = 0.20
    else:
        roles = [("first", 0, 0.30), ("last", n - 1, 0.30),
                 ("second", 1, 0.15), ("penultimate", n - 2, 0.15)]
        pool = 0.10
    assigned = {}
    for _, pos, share in roles:
        if 0 <= pos < n and pos not in assigned:
            assigned[pos] = share
    middle = [p for p in range(n) if p not in assigned]
    if middle:
        for p in middle:
            assigned[p] = pool / len(middle)
    else:
        total = sum(assigned.values())
        assigned = {p: w / total for p, w in assigned.items()}
    return [assigned[p] for p in range(n)]


class TestBylineWeights:
    def test_alphabetical_is_uniform(self):
        for n in range(1, 13):
            assert byline_weights(n, ALPHABETICAL) == [1.0 / n] * n

    @pytest.mark.parametrize("n,shared", sorted(EXACT_POSITIONAL))
    def test_positional_constants_are_float_exact(self, n, shared):
        assert byline_weights(n, POSITION_WEIGHTED, shared) == EXACT_POSITIONAL[(n, shared)]

    def test_renormalized_three_author_case(self):
        # first 0.30 + last 0.30 + second 0.15 leaves no one for the pool
        w = byline_weights(3, POSITION_WEIGHTED, shared_university=False)
        assert w == pytest.approx([0.4, 0.2, 0.4], abs=1e-12)
        assert sum(w) == pytest.approx(1.0, abs=1e-15)

    def test_renormalized_four_author_case(self):
        w = byline_weights(4, POSITION_WEIGHTED, shared_university=False)
        assert w == pytest.approx([1 / 3, 1 / 6, 1 / 6, 1 / 3], abs=1e-12)

    def test_exhaustive_small_bylines_match_oracle(self):
        for n, conv, shared in itertools.product(
                range(1, 9), (ALPHABETICAL, POSITION_WEIGHTED), (True, False)):
            got = byline_weights(n, conv, shared)
            want = ([1.0 / n] * n if conv == ALPHABETICAL
                    else expected_positional(n, shared))
            assert got == pytest.approx(want, abs=1e-15), (n, conv, shared)
            assert sum(got) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 < w <= 1.0 for w in got)

    def test_middle_pool_is_even(self):
        w = byline_weights(9, POSITION_WEIGHTED, shared_university=False)
        middle = w[2:-2]
        assert len(set(middle)) == 1
        assert middle[0] == pytest.approx(0.10 / 5, abs=1e-15)

    def test_rejects_empty_byline(self):
        with pytest.raises(CreditError):
            byline_weights(0, ALPHABETICAL)

    def test_rejects_unknown_convention(self):
        with pytest.raises(CreditError, match="unknown credit convention"):
            byline_weights(3, "coin_flip")

    @given(n=st.integers(min_value=1, max_value=12),
           conv=st.sampled_from((ALPHABETICAL, POSITION_WEIGHTED)),
           shared=st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_weights_always_form_a_distribution(self, n, conv, shared):
        w = byline_weights(n, conv, shared)
        assert len(w) == n
        assert abs(sum(w) - 1.0) < 1e-12
        assert all(0.0 < x <= 1.0 for x in w)


def shares(convention, shared, n, positions):
    """fractional_contribution of the given positions on one byline."""
    k = len(positions)
    return fractional_contribution(
        np.full(k, CONVENTIONS.index(convention)), np.full(k, shared),
        np.full(k, n), np.asarray(positions, dtype=np.int64)).tolist()


class TestFractionalContribution:
    def test_scheme_tracks_first_last_university(self):
        got = fractional_contribution(np.array([1, 1]), np.array([True, False]),
                                      np.array([4, 4]), np.array([0, 0]))
        assert got[0] == 0.40
        assert got[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_position_resolves_each_author(self):
        assert shares(POSITION_WEIGHTED, False, 5, range(5)) == [0.30, 0.15, 0.10, 0.15, 0.30]

    def test_alphabetical_ignores_affiliations(self):
        assert shares(ALPHABETICAL, True, 3, [1]) == shares(ALPHABETICAL, False, 3, [1])
        assert shares(ALPHABETICAL, True, 3, [1]) == [pytest.approx(1 / 3)]

    def test_position_out_of_range(self):
        for bad in (-1, 2, 5):
            with pytest.raises(CreditError, match="outside its byline"):
                shares(ALPHABETICAL, False, 2, [0, bad])

    def test_empty_byline_rejected(self):
        # a slot on an empty byline; ingest never builds one (see
        # test_corpus' "empty byline" row) and byline_weights(0) raises
        with pytest.raises(CreditError):
            shares(ALPHABETICAL, True, 0, [0])

    def test_matches_byline_weights_in_any_slot_order(self):
        rng = np.random.default_rng(7)
        slots = [(c, shared, n, pos) for n in range(1, 13) for c in range(len(CONVENTIONS))
                 for shared in (True, False) for pos in range(n)]
        order = rng.permutation(len(slots))
        convention, shared, n, position = (np.array(col) for col in
                                           zip(*[slots[k] for k in order]))
        got = fractional_contribution(convention, shared, n, position).tolist()
        want = [byline_weights(n, CONVENTIONS[c], shared)[pos]
                for c, shared, n, pos in (slots[k] for k in order)]
        assert got == want


class TestConventionMap:
    def test_discipline_defaults(self):
        cmap = ConventionMap()
        for uda in POSITION_WEIGHTED_UDAS:
            assert cmap.resolve("ANY/01", uda) == POSITION_WEIGHTED
        assert cmap.resolve("MAT/03", "MAT") == ALPHABETICAL
        assert cmap.resolve("MAT/03", None) == ALPHABETICAL
        assert cmap.resolve("BIO/11", "bio") == POSITION_WEIGHTED  # case-insensitive

    def test_override_beats_default(self):
        cmap = ConventionMap(overrides={"BIO/11": ALPHABETICAL})
        assert cmap.resolve("BIO/11", "BIO") == ALPHABETICAL
        assert cmap.resolve("BIO/12", "BIO") == POSITION_WEIGHTED

    def test_override_beats_global(self):
        cmap = ConventionMap(overrides={"MAT/03": POSITION_WEIGHTED},
                             global_override=ALPHABETICAL)
        assert cmap.resolve("MAT/03", "MAT") == POSITION_WEIGHTED
        assert cmap.resolve("BIO/11", "BIO") == ALPHABETICAL

    def test_global_beats_default(self):
        cmap = ConventionMap(global_override=ALPHABETICAL)
        assert cmap.resolve("BIO/11", "BIO") == ALPHABETICAL

    def test_invalid_conventions_rejected(self):
        with pytest.raises(CreditError):
            ConventionMap(overrides={"MAT/03": "seniority"})
        with pytest.raises(CreditError):
            ConventionMap(global_override="seniority")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "conventions.csv"
        write_convention_map(path, {"MAT/03": ALPHABETICAL,
                                    "BIO/11": POSITION_WEIGHTED})
        cmap = load_convention_map(path)
        assert cmap.overrides == {"MAT/03": ALPHABETICAL,
                                  "BIO/11": POSITION_WEIGHTED}
        with path.open(newline="") as fh:
            assert next(csv.reader(fh)) == ["sds", "convention"]

    def test_csv_bad_convention_rejected(self, tmp_path):
        path = tmp_path / "conventions.csv"
        path.write_text("sds,convention\nMAT/03,citations\n")
        with pytest.raises(IngestError, match="line 2"):
            load_convention_map(path)

    def test_csv_conflicting_repeat_rejected(self, tmp_path):
        path = tmp_path / "conventions.csv"
        path.write_text("sds,convention\nMED/01,alphabetical\nMED/01,alphabetical\n"
                        "MED/01,Position_Weighted\n")
        with pytest.raises(IngestError) as info:
            load_convention_map(path)
        assert info.value.problems == ["line 4: sds 'MED/01' mapped to two conventions"]
