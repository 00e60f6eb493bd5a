"""Generator matrices, brute-force minimum distance, code summaries."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fcckit import codes
from fcckit.codes import (
    GeneratorMatrix,
    iter_codewords,
    linear_encode,
    min_distance,
    summarize,
)
from fcckit.constructions import rs_systematic
from fcckit.errors import BudgetExceeded, DimensionError, RankDeficient
from fcckit.gf import Field
from fcckit.vectors import hamming_distance, iter_messages

F2 = Field(2)

HAMMING_74_ROWS = (
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)


def brute_force_min_distance(g: GeneratorMatrix) -> int:
    """Oracle: min pairwise distance over all explicitly encoded codewords."""
    words = [linear_encode(g, u) for u in iter_messages(g.q, g.k)]
    return min(
        hamming_distance(a, b) for a, b in itertools.combinations(words, 2)
    )


class TestLinearEncode:
    def test_direct_product(self):
        g = GeneratorMatrix(F2, [(1, 0, 1), (0, 1, 1)])
        assert linear_encode(g, (1, 1)) == (1, 1, 0)

    def test_zero_message(self):
        g = GeneratorMatrix(F2, HAMMING_74_ROWS)
        assert linear_encode(g, (0, 0, 0, 0)) == (0,) * 7

    def test_length_mismatch(self):
        g = GeneratorMatrix(F2, [(1, 0, 1), (0, 1, 1)])
        with pytest.raises(DimensionError):
            linear_encode(g, (1, 1, 0))

    def test_systematic_prefix(self):
        g = GeneratorMatrix(F2, HAMMING_74_ROWS)
        for u in iter_messages(2, 4):
            assert linear_encode(g, u)[:4] == u


class TestConstruction:
    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            GeneratorMatrix(F2, [(1, 0, 1), (1, 0, 1)])
        with pytest.raises(RankDeficient):
            GeneratorMatrix(Field(3), [(1, 2, 0), (2, 1, 0), (0, 0, 1)])

    def test_identity_block_skips_elimination(self, monkeypatch):
        def no_elimination(field, rows):
            raise AssertionError("an [I_k | P] generator needs no elimination")

        monkeypatch.setattr(codes, "_rank", no_elimination)
        g = GeneratorMatrix(Field(3), [(1, 0, 2, 1), (0, 1, 1, 1)])
        assert g.is_systematic()

    def test_other_rows_keep_elimination(self, monkeypatch):
        calls = []
        rank = codes._rank
        monkeypatch.setattr(codes, "_rank", lambda f, rows: calls.append(1) or rank(f, rows))
        GeneratorMatrix(Field(3), [(0, 1, 1), (1, 0, 2)])  # full rank, not systematic
        with pytest.raises(RankDeficient):
            GeneratorMatrix(Field(3), [(1, 2, 0), (2, 1, 0)])  # row 2 = 2 * row 1
        with pytest.raises(RankDeficient):
            GeneratorMatrix(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])  # near-identity, dependent
        assert len(calls) == 3

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            GeneratorMatrix(F2, [(1, 0), (0, 1), (1, 1)])

    def test_bad_symbol_rejected(self):
        with pytest.raises(DimensionError):
            GeneratorMatrix(Field(3), [(1, 0, 3)])


class TestMinDistance:
    def test_repetition(self):
        g = GeneratorMatrix(F2, [(1, 1, 1)])
        assert min_distance(g) == 3

    def test_hamming_74(self):
        g = GeneratorMatrix(F2, HAMMING_74_ROWS)
        assert min_distance(g) == 3
        assert brute_force_min_distance(g) == 3

    def test_rs_73(self):
        g = rs_systematic(7, 3, 2).generator
        assert min_distance(g) == 5
        assert brute_force_min_distance(g) == 5

    def test_budget_exceeded(self):
        g = GeneratorMatrix(F2, HAMMING_74_ROWS)
        with pytest.raises(BudgetExceeded) as exc:
            min_distance(g, budget=15)
        assert str(exc.value) == "min_distance needs 16 codewords, budget is 15"
        assert exc.value.details == {"required": 16, "budget": 15, "unit": "codewords"}

    def test_matches_oracle_on_random_codes(self):
        import random

        rng = random.Random(20240817)
        for _ in range(25):
            q = rng.choice([2, 3, 4, 5])
            f = Field(q)
            k = rng.randint(1, 3)
            n = rng.randint(k, k + 4)
            while True:
                rows = [
                    tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)
                ]
                try:
                    g = GeneratorMatrix(f, rows)
                    break
                except RankDeficient:
                    continue
            assert min_distance(g) == brute_force_min_distance(g)

    def test_invariant_under_row_operations(self):
        f5 = Field(5)
        g = rs_systematic(5, 3, 1).generator
        rows = [list(r) for r in g.rows]
        # swap, scale by a unit, add a multiple of another row
        rows[0], rows[2] = rows[2], rows[0]
        rows[1] = [f5.mul(3, x) for x in rows[1]]
        rows[2] = [f5.add(x, f5.mul(2, y)) for x, y in zip(rows[2], rows[0])]
        g2 = GeneratorMatrix(f5, rows)
        assert min_distance(g2) == min_distance(g)


class TestSummarize:
    def test_repetition_is_mds(self):
        s = summarize(GeneratorMatrix(F2, [(1, 1, 1)]))
        assert (s.n, s.k, s.d) == (3, 1, 3)
        assert s.is_mds

    def test_hamming_not_mds(self):
        s = summarize(GeneratorMatrix(F2, HAMMING_74_ROWS))
        assert s.d == 3
        assert not s.is_mds
        assert s.is_systematic

    def test_rs_systematic_mds(self):
        s = summarize(rs_systematic(7, 3, 2).generator)
        assert s.is_systematic and s.is_mds
        assert (s.n, s.k, s.d, s.q) == (7, 3, 5, 7)

    def test_non_systematic_flag(self):
        g = GeneratorMatrix(F2, [(1, 1, 1)])
        assert summarize(g).is_systematic  # k=1 leading block is (1,)
        g2 = GeneratorMatrix(F2, [(0, 1, 1), (1, 0, 1)])
        assert not summarize(g2).is_systematic


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_singleton_bound(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    f = Field(q)
    k = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=k, max_value=k + 4))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n),
            min_size=k,
            max_size=k,
        )
    )
    try:
        g = GeneratorMatrix(f, rows)
    except RankDeficient:
        return
    s = summarize(g)
    assert 1 <= s.d <= s.n - s.k + 1
    assert s.is_mds == (s.d == s.n - s.k + 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_systematic_distance_dominates_message_distance(data):
    g = rs_systematic(7, 3, 2).generator
    u = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    v = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    assert hamming_distance(linear_encode(g, u), linear_encode(g, v)) >= hamming_distance(u, v)


def test_codewords_enumerates_all():
    g = GeneratorMatrix(F2, [(1, 0, 1), (0, 1, 1)])
    words = [tuple(cw) for cw in iter_codewords(g)]
    assert words == [linear_encode(g, u) for u in iter_messages(2, 2)]
    assert words[0] == (0, 0, 0)
    assert len(set(words)) == 4


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_iter_codewords_matches_linear_encode(data):
    # prime, 2^m and odd p^m fields: the odometer steps by field
    # differences, which differ from index differences off the prime fields
    q = data.draw(st.sampled_from([2, 3, 5, 7, 4, 8, 9, 25]))
    f = Field(q)
    k = data.draw(st.integers(min_value=1, max_value=4 if q <= 3 else 2))
    n = data.draw(st.integers(min_value=k, max_value=k + 3))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n),
            min_size=k,
            max_size=k,
        )
    )
    try:
        g = GeneratorMatrix(f, rows)
    except RankDeficient:
        return
    got = [tuple(cw) for cw in iter_codewords(g)]
    assert got == [linear_encode(g, u) for u in iter_messages(q, k)]
