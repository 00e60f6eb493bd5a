"""Generator matrices and minimum distance against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcckit import codes
from fcckit.codes import (
    GeneratorMatrix,
    Lanes,
    iter_projective_shells,
    linear_encode,
    min_distance,
)
from fcckit.constructions import bch_systematic, rs_systematic
from fcckit.errors import BudgetExceeded, DimensionError, InvalidOrder, RankDeficient
from fcckit.fcc import FccScheme, _parity_rows
from fcckit.gf import Field, prime_power_split
from fcckit.vectors import hamming_distance, iter_messages

F2 = Field(2)


def hamming_weight(u) -> int:
    return sum(1 for x in u if x != 0)


def unpack(lanes: Lanes, x: int) -> tuple[int, ...]:
    """The word a ``Lanes`` int packs: symbol j's base-p digits, read
    from its m lanes."""
    p, m, lane = lanes.p, lanes.m, lanes.lane
    mask = (1 << lane) - 1
    digits = [(x >> i * lane) & mask for i in range(m * lanes.n)]
    return tuple(
        sum(c * p**i for i, c in enumerate(digits[j * m : (j + 1) * m]))
        for j in range(lanes.n)
    )


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


def full_enumeration_min_distance(g: GeneratorMatrix) -> int:
    """Oracle: the minimum weight over all q^k - 1 nonzero codewords,
    each encoded on its own, with no early stop."""
    return min(hamming_weight(cw) for cw in nonzero_codewords(g))


def nonzero_codewords(g: GeneratorMatrix) -> list[tuple[int, ...]]:
    """Oracle: u . G for every nonzero message u, by ``linear_encode``."""
    return [linear_encode(g, u) for u in itertools.islice(iter_messages(g.q, g.k), 1, None)]


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
        g = GeneratorMatrix(Field(3), [(0, 1, 1), (1, 0, 2)])  # full rank
        assert not g.is_systematic()
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
    assert 1 <= min_distance(g) <= g.n - g.k + 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_systematic_distance_dominates_message_distance(data):
    g = rs_systematic(7, 3, 2).generator
    u = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    v = data.draw(st.tuples(*[st.integers(0, 6)] * 3))
    assert hamming_distance(linear_encode(g, u), linear_encode(g, v)) >= hamming_distance(u, v)


def test_codewords_enumerates_all():
    # the verifier enumerates the codewords u . [I | P] in message rank
    # order as u followed by its row of ``_parity_rows``
    g = GeneratorMatrix(F2, [(1, 0, 1), (0, 1, 1)])
    messages = list(iter_messages(2, 2))
    words = [u + p for u, p in zip(messages, _parity_rows(FccScheme.linear(g)))]
    assert words == [linear_encode(g, u) for u in messages]
    assert words[0] == (0, 0, 0)
    assert len(set(words)) == 4


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_iter_codewords_matches_linear_encode(data):
    # the verifier's codeword enumeration reads u . P built one digit at a
    # time by ``_parity_rows``; prime, 2^m and odd p^m fields, r = 0 included
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25]))
    k = data.draw(st.integers(min_value=1, max_value=4 if q <= 3 else 2))
    r = data.draw(st.integers(min_value=0, max_value=3))
    symbol = st.integers(0, q - 1)
    rows = [
        tuple(int(j == i) for j in range(k)) + data.draw(st.tuples(*[symbol] * r))
        for i in range(k)
    ]
    g = GeneratorMatrix(Field(q), rows)
    want = [linear_encode(g, u)[k:] for u in iter_messages(q, k)]
    assert _parity_rows(FccScheme.linear(g)) == want


# Largest k per field for the full-enumeration oracle: prime, 2^m and odd p^m.
_MAX_K = {2: 7, 3: 5, 4: 4, 5: 3, 7: 3, 8: 2, 9: 2, 16: 2, 25: 2}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_min_distance_matches_full_enumeration(data):
    q = data.draw(st.sampled_from(sorted(_MAX_K)))
    f = Field(q)
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K[q]))
    r = data.draw(st.integers(min_value=0, max_value=4))  # r = 0 is k = n
    symbol = st.integers(0, q - 1)
    unit = st.integers(1, q - 1)
    parity = [list(data.draw(st.tuples(*[symbol] * r))) for _ in range(k)]
    if r and data.draw(st.booleans()):
        parity[data.draw(st.integers(0, k - 1))] = [0] * r  # a weight-1 codeword: d = 1
    rows = [[int(j == i) for j in range(k)] + parity[i] for i in range(k)]
    # random invertible row operations and a column permutation make the
    # generator non-systematic
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        op = data.draw(st.sampled_from(["swap", "scale", "add"]))
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(0, k - 1))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "scale":
            a = data.draw(unit)
            rows[i] = [f.mul(a, x) for x in rows[i]]
        elif i != j:
            a = data.draw(unit)
            rows[i] = [f.add(x, f.mul(a, y)) for x, y in zip(rows[i], rows[j])]
    perm = data.draw(st.permutations(range(k + r)))
    g = GeneratorMatrix(f, [[row[c] for c in perm] for row in rows])
    assert min_distance(g) == full_enumeration_min_distance(g)

    # one codeword per projective class, in shells of nondecreasing weight
    # bounded below by the shell
    lanes = Lanes(f, k + r)
    shells = [(w, unpack(lanes, cw)) for w, cw in iter_projective_shells(g)]
    assert len(shells) == (q**k - 1) // (q - 1)
    assert [w for w, _ in shells] == sorted(w for w, _ in shells)
    assert all(hamming_weight(cw) >= w for w, cw in shells)
    multiples = {tuple(f.mul(a, x) for x in cw) for _, cw in shells for a in range(1, q)}
    assert multiples == set(nonzero_codewords(g))



def _is_field_order(q: int) -> bool:
    try:
        prime_power_split(q)
    except InvalidOrder:
        return False
    return True


# Every field order up to 32: prime, 2^m and odd p^m.
SMALL_ORDERS = [q for q in range(2, 33) if _is_field_order(q)]


class TestLanes:
    """Packed words against ``Field`` arithmetic, symbol by symbol."""

    @pytest.mark.parametrize("q", SMALL_ORDERS)
    def test_every_element_and_pair(self, q):
        # word u holds every element once, and its q rotations v line up
        # every pair (u_j, v_j) of elements, in one word add each
        f = Field(q)
        lanes = Lanes(f, q)
        u = tuple(range(q))
        assert unpack(lanes, lanes.pack(u)) == u
        for e in range(q):
            one = Lanes(f, 1)
            assert unpack(one, one.pack((e,))) == (e,)
            assert one.weight(one.pack((e,))) == int(e != 0)
        for shift in range(q):
            v = u[shift:] + u[:shift]
            total = unpack(lanes, lanes.add(lanes.pack(u), lanes.pack(v)))
            assert total == tuple(f.add(a, b) for a, b in zip(u, v))
            assert lanes.weight(lanes.pack(total)) == hamming_weight(total)

    @pytest.mark.parametrize("q", [251, 125, 243, 256])
    def test_sampled_words_in_large_fields(self, q):
        # 251 needs 9-bit sums; every lane at p - 1 (element q - 1 of a
        # p^m field) gives the largest sum, 2p - 2, in every lane
        f = Field(q)
        rng = random.Random(q)
        n = 12
        lanes = Lanes(f, n)
        words = [(q - 1,) * n, (0,) * n, (1,) * n]
        for _ in range(60):
            words.append(tuple(rng.choice((0, q - 1, rng.randrange(q))) for _ in range(n)))
        for u in words:
            assert unpack(lanes, lanes.pack(u)) == u
            assert lanes.weight(lanes.pack(u)) == hamming_weight(u)
        for u, v in itertools.product(words[:12], words):
            total = unpack(lanes, lanes.add(lanes.pack(u), lanes.pack(v)))
            assert total == tuple(f.add(a, b) for a, b in zip(u, v))
            assert lanes.weight(lanes.pack(total)) == hamming_weight(total)


@pytest.mark.parametrize(
    "q,k,t",
    [(11, 5, 3), (13, 4, 4), (16, 4, 2), (9, 4, 2), (127, 3, 2), (251, 2, 2)],
    ids=lambda v: str(v),
)
def test_rs_min_distance_is_singleton(q, k, t):
    g = rs_systematic(q, k, t).generator
    assert min_distance(g) == g.n - k + 1


def test_bch_min_distance():
    assert min_distance(bch_systematic(10, 2).generator) >= 5
    hamming = bch_systematic(4, 1).generator
    assert (hamming.n, hamming.k) == (7, 4)
    assert min_distance(hamming) == 3
