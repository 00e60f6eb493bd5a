"""Function tables, scheme encoding, the verifier, the decoder, and the
critical-pair scan."""

import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

import fcckit.fcc
from fcckit.bounds import hamming_ball_volume
from fcckit.channel import inject
from fcckit.constructions import bch_systematic, or_scheme, rs_systematic
from fcckit.errors import (
    BeyondRadius,
    BudgetExceeded,
    DimensionError,
    NotSystematic,
    RankDeficient,
    UnknownFunction,
)
from fcckit.codes import GeneratorMatrix, linear_encode
from fcckit.fcc import (
    BUILTIN_NAMES,
    FccScheme,
    FunctionTable,
    _parity_rows,
    builtin_function,
    fcc_decode,
    fcc_encode,
    find_critical_pair,
    verify_fcc,
)
from fcckit.formats import parse_function_file, serialize_function_file
from fcckit.gf import Field
from fcckit.vectors import (
    check_vector,
    hamming_distance,
    iter_messages,
    message_rank,
    messages_at_distance,
    messages_by_weight,
    messages_of_weight,
    unrank_message,
    weight_table,
)


def hamming_weight(u) -> int:
    return sum(1 for x in u if x != 0)


class TestBuiltinFunctions:
    def test_or(self):
        f = builtin_function("or", 2, 3)
        assert tuple(f.values) == (0, 1, 1, 1, 1, 1, 1, 1)
        assert f.image_size == 2

    def test_constant(self):
        f = builtin_function("constant", 3, 2)
        assert len(set(f.values)) == 1
        assert f.image_size == 1

    def test_hamming_weight(self):
        f = builtin_function("hamming_weight", 2, 2)
        assert tuple(f.values) == (0, 1, 1, 2)

    def test_identity_is_bijective(self):
        f = builtin_function("identity", 3, 2)
        assert sorted(f.values) == list(range(9))
        assert f.image_size == 9

    def test_linear(self):
        f = builtin_function("linear", 3, 2, aux=(1, 2))
        # f(u) = u0 + 2*u1 mod 3
        assert f.label((1, 1)) == 0
        assert f.label((2, 1)) == 1
        assert f.image_size == 3

    def test_threshold(self):
        f = builtin_function("threshold", 2, 3, aux=2)
        assert f.label((0, 1, 0)) == 0
        assert f.label((1, 1, 0)) == 1

    def test_unknown_name(self):
        with pytest.raises(UnknownFunction):
            builtin_function("xor3", 2, 3)

    def test_aux_shape_mismatch(self):
        with pytest.raises(DimensionError):
            builtin_function("linear", 3, 2, aux=(1, 2, 0))
        with pytest.raises(DimensionError):
            builtin_function("linear", 3, 2)
        with pytest.raises(DimensionError):
            builtin_function("threshold", 2, 3)
        for name in ("or", "constant", "identity", "hamming_weight"):
            with pytest.raises(DimensionError):
                builtin_function(name, 2, 3, aux=(5,))

    def test_table_length_enforced(self):
        with pytest.raises(DimensionError):
            FunctionTable(2, 2, (0, 1, 1))


def reference_label(name, q, u, aux=None):
    """Oracle: one built-in label from its definition, by one Python loop
    over the message."""
    if name == "or":
        return 0 if all(x == 0 for x in u) else 1
    if name == "constant":
        return 0
    if name == "identity":
        rank = 0
        for x in u:
            rank = rank * q + x
        return rank
    if name == "hamming_weight":
        return hamming_weight(u)
    if name == "linear":
        f = Field(q)
        acc = 0
        for a, x in zip(aux, u):
            acc = f.add(acc, f.mul(a, x))
        return acc
    theta = aux[0] if isinstance(aux, tuple) else aux
    return 1 if hamming_weight(u) >= theta else 0


def loop_builtin_function(name, q, k, aux=None):
    """Oracle: the function table built by one reference label per message."""
    return tuple(reference_label(name, q, u, aux) for u in iter_messages(q, k))


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16)),
    k=st.integers(min_value=1, max_value=4),
    name=st.sampled_from(BUILTIN_NAMES),
    data=st.data(),
)
def test_builtin_function_matches_per_message_loops(q, k, name, data):
    aux = None
    if name == "linear":
        aux = tuple(
            data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k), label="coeffs")
        )
    elif name == "threshold":
        theta = data.draw(st.integers(-1, k + 1), label="theta")
        aux = data.draw(st.sampled_from((theta, (theta,))), label="aux")
    got = builtin_function(name, q, k, aux)
    assert tuple(got.values) == loop_builtin_function(name, q, k, aux)


def builtin_cases(q, k):
    """Every built-in family over F_q^k with the aux values worth checking:
    linear coefficient vectors with zeros at the start, the end and in
    between, and every threshold from below 0 to above k."""
    yield from ((name, None) for name in ("or", "constant", "identity", "hamming_weight"))
    zeros_between = tuple((i % q) * (i % 2) for i in range(k))
    for coeffs in ((0,) * k, zeros_between, (q - 1,) + (0,) * (k - 1), tuple(range(q - k, q))):
        yield "linear", tuple(x % q for x in coeffs)
    for theta in range(-1, k + 2):
        yield "threshold", theta


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16))
def test_every_builtin_table_matches_per_message_loops(q):
    for k in range(1, 5):
        for name, aux in builtin_cases(q, k):
            got = tuple(builtin_function(name, q, k, aux).values)
            assert got == loop_builtin_function(name, q, k, aux), (name, q, k, aux)
            # labels stay ints, so a function file is written the same way
            assert all(type(v) is int for v in got)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17))
def test_weight_table_matches_per_message_weights(q):
    for k in range(1, 6):
        if q**k > 20000:
            break
        got = weight_table(q, k)
        assert type(got) is bytes
        assert list(got) == [hamming_weight(u) for u in iter_messages(q, k)], (q, k)


def test_linear_past_256_symbols_matches_per_message_loop():
    # over q > 256 the labels, field indices, need not fit in a byte
    for aux in ((1, 256), (0, 0), (3, 0)):
        f = builtin_function("linear", 257, 2, aux)
        assert tuple(f.values) == loop_builtin_function("linear", 257, 2, aux), aux
        assert type(f.values) is (tuple if max(f.values) > 255 else bytes)


# sha256 over every built-in table of ``builtin_cases`` with q^k <= 4096,
# as (name, k, aux, store type, labels), taken from the whole-table
# kernels before built-ins kept their rule
TABLE_DIGESTS = {
    2: "469d9da5cace8d4c386b68f89d27adf81ffa0ecca6967256ae8a1c03340fe868",
    3: "67ab43ce040a3af0dac451141de22bef62672fb1f7ca5fc63ab633c79314edcc",
    4: "85ab3944a666b92038a5e090596226bede984cb09971eb429f280f95b6203543",
    5: "aee69e70150ff03ed4b376e5925654b88fdd9326cba161aa0e70d06c38bf958d",
    7: "9df16a782e1fd35f980c573a2b015febe59304bf5eeeb8f6ddc2a96c30aa7b5e",
    8: "0e94e52062d3742bf93bf77d1688dfc5e4eefe72fb19d04b9d66f964e640d1af",
    9: "3ce8684eed27afedd6e383aa323690840e66cd24f8b117a4927cd63f7605427a",
    16: "fc6be952c8483c10b949f45076e4a662c394683837e3cb5066275948581660ba",
    17: "21f55ec8aa4c5cd465e91ae7830d0419f3993a23eda52e9719ab96a8898798e7",
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_rule_matches_table_on_every_small_cell(q):
    # the rule's label at every rank, its label counts and image size
    # against the table, without building the table; then the table built
    # on first read against the kernels' digest, and a function-file round
    # trip equal and hash-equal to the rule
    digest = hashlib.sha256()
    k = 1
    while q**k <= 4096:
        for name, aux in builtin_cases(q, k):
            table = builtin_function(name, q, k, aux).values
            f = builtin_function(name, q, k, aux)
            assert [f.label(u) for u in iter_messages(q, k)] == list(table), (name, k, aux)
            assert f.label_counts() == Counter(table), (name, k, aux)
            assert f.image_size == len(set(table))
            assert f._values is None
            values = f.values
            digest.update(repr((name, k, aux, type(values).__name__, tuple(values))).encode())
            loaded = parse_function_file(serialize_function_file(builtin_function(name, q, k, aux)))
            assert loaded == builtin_function(name, q, k, aux)
            assert hash(loaded) == hash(builtin_function(name, q, k, aux))
        k += 1
    assert digest.hexdigest() == TABLE_DIGESTS[q]


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from(sorted(TABLE_DIGESTS)),
    k=st.integers(min_value=1, max_value=40),
    name=st.sampled_from(BUILTIN_NAMES),
    data=st.data(),
)
def test_rule_matches_reference_labels_at_large_k(q, k, name, data):
    # messages sampled at k up to 40, far past any table: the labels
    # against the per-message reference, and counts that cover F_q^k,
    # with no table built
    aux = None
    if name == "linear":
        aux = data.draw(st.tuples(*[st.integers(0, q - 1)] * k), label="coeffs")
    elif name == "threshold":
        aux = data.draw(st.integers(-1, k + 1), label="theta")
    f = builtin_function(name, q, k, aux)
    messages = st.tuples(*[st.integers(0, q - 1)] * k)
    for u in data.draw(st.lists(messages, min_size=1, max_size=8), label="messages"):
        assert f.label(u) == reference_label(name, q, u, aux)
    if name != "identity" or k <= 4:
        counts = f.label_counts()
        assert sum(counts.values()) == q**k and min(counts.values()) > 0
        assert f.image_size == len(counts)
    else:
        assert f.image_size == q**k
    assert f._values is None


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from((2, 3, 4)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_function_table_stores_labels_by_value(q, k, data):
    """Labels in and out of 0..255: stored elementwise equal, as bytes
    exactly when every label fits, equal and hash-equal whether given as a
    tuple, a list or bytes; negative labels and wrong lengths raise the
    same errors either way."""
    n = q**k
    lo, hi = data.draw(st.sampled_from(((0, 1), (0, 255), (200, 300), (0, 2**70), (-3, 255))))
    size = data.draw(st.sampled_from((n, n, n, n - 1, n + 1)), label="size")
    labels = data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
    fits = all(0 <= x <= 255 for x in labels)
    inputs = [tuple(labels), list(labels)] + ([bytes(labels)] if fits else [])
    for values in inputs:
        if size != n:
            with pytest.raises(DimensionError) as exc:
                FunctionTable(q, k, values)
            assert str(exc.value) == f"function table has {size} entries, expected {n}"
        elif min(labels) < 0:
            with pytest.raises(DimensionError) as exc:
                FunctionTable(q, k, values)
            assert str(exc.value) == "function labels must be non-negative integers"
        else:
            f = FunctionTable(q, k, values)
            assert list(f.values) == labels
            assert type(f.values) is (bytes if fits else tuple)
            first = FunctionTable(q, k, inputs[0])
            assert f == first and hash(f) == hash(first)
            assert f.image_size == len(set(labels))


class TestSchemeConstruction:
    def test_linear_requires_systematic(self):
        g = GeneratorMatrix(Field(2), [(0, 1, 1), (1, 0, 1)])
        with pytest.raises(NotSystematic):
            FccScheme.linear(g)

    def test_tabular_requires_complete_table(self):
        with pytest.raises(DimensionError):
            FccScheme.tabular(2, 2, [(0, 0), (1, 1), (1, 1)])

    def test_tabular_row_width(self):
        with pytest.raises(DimensionError):
            FccScheme.tabular(2, 1, [(0, 0), (1,)])


def first_bad_row_error(rows, q, width, what):
    """Oracle: check_vector on each row in order; the first error's text,
    or None when every row passes."""
    for row in rows:
        try:
            check_vector(row, q, width, what)
        except DimensionError as exc:
            return str(exc)
    return None


def bad_rows(data, q, width, count):
    """Rows of about ``width`` symbols, a few of them short, long or with a
    symbol outside [0, q)."""
    bad_symbols = data.draw(st.booleans(), label="bad symbols")
    symbol = st.integers(-2, q + 1) if bad_symbols else st.integers(0, q - 1)
    widths = st.sampled_from((width,) * 6 + tuple(w for w in (width - 1, width + 1) if w >= 0))
    return [
        tuple(data.draw(st.lists(symbol, min_size=w, max_size=w), label="row"))
        for w in (data.draw(widths, label="width") for _ in range(count))
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tabular_rejects_first_bad_row_as_check_vector(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5)), label="q")
    k = data.draw(st.integers(1, 2), label="k")
    r = data.draw(st.integers(0, 3), label="r")
    rows = [(0,) * r] + bad_rows(data, q, r, q**k - 1)
    expected = first_bad_row_error(rows, q, r, "parity row")
    if expected is None:
        assert FccScheme.tabular(q, k, rows).parity_table == tuple(rows)
    else:
        with pytest.raises(DimensionError) as exc:
            FccScheme.tabular(q, k, rows)
        assert str(exc.value) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generator_matrix_rejects_first_bad_row_as_check_vector(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5)), label="q")
    n = data.draw(st.integers(2, 6), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(k)]
    rows[1:] = bad_rows(data, q, n, k - 1)
    expected = first_bad_row_error(rows, q, n, "generator row")
    if expected is None:
        try:
            assert GeneratorMatrix(Field(q), rows).rows == tuple(rows)
        except RankDeficient:
            pass
    else:
        with pytest.raises(DimensionError) as exc:
            GeneratorMatrix(Field(q), rows)
        assert str(exc.value) == expected


class TestEncode:
    def test_or_parity_rule(self):
        s = or_scheme(2, 3, 1)
        assert fcc_encode(s, (1, 0, 1)) == (1, 0, 1, 1, 1)

    def test_linear_zero_message(self):
        s = rs_systematic(5, 3, 1).scheme
        assert fcc_encode(s, (0, 0, 0)) == (0,) * 5

    def test_prefix_is_message(self):
        for s in (or_scheme(3, 2, 2), rs_systematic(7, 3, 2).scheme):
            for u in iter_messages(s.q, s.k):
                assert fcc_encode(s, u)[: s.k] == u

    def test_dimension_error(self):
        s = or_scheme(2, 3, 1)
        with pytest.raises(DimensionError):
            fcc_encode(s, (1, 0))
        with pytest.raises(DimensionError):
            fcc_encode(s, (1, 0, 2))


def pair_scan_verify(scheme, f, t):
    """Oracle: compare every unordered pair with different labels on full
    codewords, one pair at a time in (rank, rank) order.  Returns (ok,
    violating pair, distance, pairs checked) as ``verify_fcc`` reports
    them."""
    k, labels, need = scheme.k, f.values, 2 * t + 1
    words = [fcc_encode(scheme, u) for u in iter_messages(scheme.q, k)]
    checked = 0
    for i, ci in enumerate(words):
        for j in range(i + 1, len(words)):
            if labels[j] == labels[i]:
                continue
            checked += 1
            d = sum(map(ne, ci, words[j]))
            if d < need:
                return False, (ci[:k], words[j][:k]), d, checked
    return True, None, None, checked


def verdict(result):
    return result.ok, result.violating_pair, result.distance, result.pairs_checked


def refuse_walks(monkeypatch, *names):
    """Make any call of the named ``fcckit.fcc`` helpers (``min_distance``,
    the pair scan's ``_parity_rows``) fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("walked the codewords")

    for name in names:
        monkeypatch.setattr(fcckit.fcc, name, refuse)


class CountingScheme(FccScheme):
    """A scheme that counts the messages it encodes."""

    __slots__ = ("encoded",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encoded = 0

    def parity(self, u):
        self.encoded += 1
        return super().parity(u)


class TestVerify:
    def test_or_scheme_passes(self):
        s = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        result = verify_fcc(s, f, 1)
        assert result.ok
        assert result.violating_pair is None

    def test_zero_parity_fails(self):
        s = FccScheme.tabular(2, 1, [(0, 0), (0, 0)])
        f = builtin_function("or", 2, 1)
        result = verify_fcc(s, f, 1)
        assert not result.ok
        assert result.violating_pair == ((0,), (1,))
        assert result.distance == 1

    def test_r0_identity_scheme_with_constant(self):
        s = FccScheme.tabular(2, 3, [()] * 2**3)
        f = builtin_function("constant", 2, 3)
        assert verify_fcc(s, f, 5).ok

    def test_first_violation_in_pair_order(self):
        # identity function, parity too weak: first violating pair must be
        # the lexicographically first differing pair, which is (00, 01)
        s = FccScheme.tabular(2, 2, [(0,), (1,), (1,), (0,)])
        f = builtin_function("identity", 2, 2)
        result = verify_fcc(s, f, 1)
        assert not result.ok
        assert result.violating_pair == ((0, 0), (0, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            verify_fcc(or_scheme(2, 3, 1), builtin_function("or", 2, 2), 1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            verify_fcc(or_scheme(2, 3, 1), builtin_function("or", 2, 3), 1, budget=4)

    def test_budget_counts_message_pairs(self):
        s, f = or_scheme(2, 3, 1), builtin_function("or", 2, 3)
        assert verify_fcc(s, f, 1, budget=28).ok  # 8 messages, 28 pairs
        with pytest.raises(BudgetExceeded) as exc:
            verify_fcc(s, f, 1, budget=27)
        assert exc.value.details == {"required": 28, "budget": 27, "unit": "message pairs"}
        assert "28 message pairs" in str(exc.value)

    def test_budget_refuses_before_any_work(self, monkeypatch):
        # 2^16 messages are 2^31 - 2^15 pairs, far over the default budget;
        # neither min_distance nor the pair scan's parity table may start
        s = bch_systematic(16, 3).scheme
        refuse_walks(monkeypatch, "min_distance", "_parity_rows")
        with pytest.raises(BudgetExceeded) as exc:
            verify_fcc(s, builtin_function("or", 2, 16), 3)
        assert exc.value.details["required"] == 2**16 * (2**16 - 1) // 2

    def test_matches_naive_oracle_on_random_schemes(self):
        rng = random.Random(7)
        for _ in range(60):
            q = rng.choice([2, 3])
            k = rng.randint(1, 3)
            r = rng.randint(0, 3)
            t = rng.randint(0, 2)
            table = [
                tuple(rng.randrange(q) for _ in range(r)) for _ in range(q**k)
            ]
            values = tuple(rng.randrange(3) for _ in range(q**k))
            s = FccScheme.tabular(q, k, table)
            f = FunctionTable(q, k, values)
            assert verdict(verify_fcc(s, f, t)) == pair_scan_verify(s, f, t)

    def test_negative_t_rejected(self):
        with pytest.raises(DimensionError):
            verify_fcc(or_scheme(2, 3, 1), builtin_function("or", 2, 3), -1)
        with pytest.raises(DimensionError):
            verify_fcc(rs_systematic(5, 2, 1).scheme, builtin_function("or", 5, 2), -1)

    def test_linear_pass_on_83521_messages(self, monkeypatch):
        # min_distance passes rs(17,4,2) without a pair scan, and
        # pairs_checked is the closed-form count of different-label pairs
        s = rs_systematic(17, 4, 2).scheme
        refuse_walks(monkeypatch, "_parity_rows")
        result = verify_fcc(s, builtin_function("or", 17, 4), 2, budget=2**33)
        assert verdict(result) == (True, None, None, 17**4 - 1)

    def test_linear_failure_on_83521_messages(self, monkeypatch):
        # d = 3 < 2t+1 = 5: the first violation pairs zero with the
        # lowest-rank message whose codeword has weight below 5; each
        # verify builds the parity table afresh, keeping nothing on the scheme
        s = rs_systematic(17, 4, 1).scheme
        builds = []
        monkeypatch.setattr(
            fcckit.fcc, "_parity_rows", lambda sc: builds.append(sc) or _parity_rows(sc)
        )
        result = verify_fcc(s, builtin_function("or", 17, 4), 2, budget=2**33)
        assert builds == [s]
        rank, v = next(
            (rank, v)
            for rank, v in enumerate(iter_messages(17, 4))
            if rank and sum(1 for x in fcc_encode(s, v) if x) < 5
        )
        want_d = sum(1 for x in fcc_encode(s, v) if x)
        assert verdict(result) == (False, ((0, 0, 0, 0), v), want_d, rank)

    def test_linear_pass_and_decode_build_no_parity_table(self, monkeypatch):
        # the weight check reads min_distance and a decode within the
        # radius encodes the message ball: neither lists the codewords
        s = rs_systematic(9, 3, 2).scheme
        f = builtin_function("identity", 9, 3)
        refuse_walks(monkeypatch, "_parity_rows")
        assert verdict(verify_fcc(s, f, 2)) == (True, None, None, 9**3 * (9**3 - 1) // 2)
        u = (8, 0, 5)
        y = inject(s.field, fcc_encode(s, u), 2, seed=random.Random(9))
        out = fcc_decode(s, f, 2, y)
        assert (out.label, out.distance) == (f.label(u), 2)

    def test_equal_label_pairs_impose_nothing(self):
        # collapsing all labels to one value always verifies, whatever the parity
        rng = random.Random(13)
        for _ in range(20):
            table = [tuple(rng.randrange(2) for _ in range(2)) for _ in range(8)]
            s = FccScheme.tabular(2, 3, table)
            f = builtin_function("constant", 2, 3)
            result = verify_fcc(s, f, 3)
            assert result.ok
            assert result.pairs_checked == 0

    def test_parity_translation_invariance_100_seeded_schemes(self):
        rng = random.Random(424242)
        for _ in range(100):
            q = rng.choice([2, 3, 4])
            field = Field(q)
            k = rng.randint(1, 3)
            r = rng.randint(1, 3)
            t = rng.randint(1, 2)
            table = [
                tuple(rng.randrange(q) for _ in range(r)) for _ in range(q**k)
            ]
            values = tuple(rng.randrange(2) for _ in range(q**k))
            f = FunctionTable(q, k, values)
            shift = tuple(rng.randrange(q) for _ in range(r))
            shifted = [
                tuple(field.add(x, c) for x, c in zip(row, shift)) for row in table
            ]
            before = verify_fcc(FccScheme.tabular(q, k, table), f, t)
            after = verify_fcc(FccScheme.tabular(q, k, shifted), f, t)
            assert before.ok == after.ok


class TestDecode:
    def test_budget_details_shape(self):
        s, f = or_scheme(2, 3, 1), builtin_function("or", 2, 3)
        with pytest.raises(BudgetExceeded) as exc:
            fcc_decode(s, f, 1, (0,) * 5, budget=7)
        assert str(exc.value) == "decoding needs 8 codewords, budget is 7"
        assert exc.value.details == {"required": 8, "budget": 7, "unit": "codewords"}

    def test_flip_within_radius(self):
        s = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        y = list(fcc_encode(s, (0, 0, 1)))
        y[1] ^= 1
        out = fcc_decode(s, f, 1, y)
        assert out.label == 1
        assert out.within_radius

    def test_exact_codeword(self):
        s = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        out = fcc_decode(s, f, 1, (0, 0, 0, 0, 0))
        assert (out.label, out.distance) == (0, 0)

    def test_beyond_radius_strict_and_best_effort(self):
        s = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        y = (1, 1, 0, 0, 0)
        # hand oracle: distance to every codeword
        dists = [
            hamming_distance(y, fcc_encode(s, u)) for u in iter_messages(2, 3)
        ]
        assert min(dists) == 2
        with pytest.raises(BeyondRadius) as exc:
            fcc_decode(s, f, 1, y)
        assert exc.value.distance == 2
        out = fcc_decode(s, f, 1, y, strict=False)
        assert out.distance == 2
        assert not out.within_radius
        assert out.label == f.values[dists.index(min(dists))]

    def test_received_length_checked(self):
        s = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        with pytest.raises(DimensionError):
            fcc_decode(s, f, 1, (0, 0, 0, 0))

    @pytest.mark.parametrize(
        "scheme,fname",
        [
            (or_scheme(2, 3, 1), "or"),
            (or_scheme(3, 2, 1), "or"),
        ],
    )
    def test_exhaustive_guarantee_or(self, scheme, fname):
        f = builtin_function(fname, scheme.q, scheme.k)
        assert verify_fcc(scheme, f, 1).ok
        field = scheme.field
        zero = (0,) * scheme.n
        errors = [e for w in (0, 1) for e in messages_at_distance(zero, scheme.q, w)]
        for u in iter_messages(scheme.q, scheme.k):
            cw = fcc_encode(scheme, u)
            for err in errors:
                y = tuple(field.add(a, b) for a, b in zip(cw, err))
                out = fcc_decode(scheme, f, 1, y)
                assert out.label == f.label(u)
                assert out.within_radius

    def test_exhaustive_guarantee_rs_identity(self):
        rep = rs_systematic(5, 3, 1)
        scheme = rep.scheme
        f = builtin_function("identity", 5, 3)
        field = scheme.field
        zero = (0,) * scheme.n
        errors = [e for w in (0, 1) for e in messages_at_distance(zero, 5, w)]
        for u in iter_messages(5, 3):
            cw = fcc_encode(scheme, u)
            for err in errors:
                y = tuple(field.add(a, b) for a, b in zip(cw, err))
                out = fcc_decode(scheme, f, 1, y)
                assert out.label == f.label(u)

    def test_exact_match_encodes_one_message(self):
        # the received word's own message is the whole radius-0 ring
        s = CountingScheme.linear(rs_systematic(13, 4, 3).generator)
        f = builtin_function("identity", 13, 4)
        y = fcc_encode(s, (12, 12, 12, 12))
        s.encoded = 0
        out = fcc_decode(s, f, 3, y)
        assert (out.label, out.distance) == (13**4 - 1, 0)
        assert s.encoded == 1
        assert fcc_decode(s, f, 3, y) == out

    def test_negative_t_rejected(self):
        s = or_scheme(2, 3, 1)
        with pytest.raises(DimensionError):
            fcc_decode(s, builtin_function("or", 2, 3), -1, (0, 0, 0, 0, 0))

    def test_decode_encodes_the_message_ball_on_83521_messages(self):
        # 17^4 messages, more than the 65536 that a codebook was once
        # capped at; a decode at distance w <= t encodes the V(4, w, 17) messages
        # within w of the received word's message part, 1601 at w = 2
        s = CountingScheme.linear(rs_systematic(17, 4, 2).generator)
        f = builtin_function("identity", 17, 4)
        rng = random.Random(20261018)
        for weight in (0, 1, 2, 2):
            u = tuple(rng.randrange(17) for _ in range(4))
            y = inject(s.field, fcc_encode(s, u), weight, seed=rng)
            s.encoded = 0
            out = fcc_decode(s, f, 2, y)
            assert (out.label, out.distance) == (f.label(u), weight)
            assert s.encoded == hamming_ball_volume(4, weight, 17)


def test_benchmark_decode_cells_hold_no_label_table():
    # decode_channel's rs(9,5,2) identity and bch(15,2) hamming_weight
    # cells, from the function's construction to decodes at error weights
    # 0..t, stay under a small traced peak: the identity table alone is
    # 59,049 ints
    cells = [
        (rs_systematic(9, 5, 2).scheme, "identity"),
        (bch_systematic(15, 2).scheme, "hamming_weight"),
    ]
    rng = random.Random(26)
    words = []
    for s, name in cells:
        for w in range(3):
            u = unrank_message(rng.randrange(s.q**s.k), s.q, s.k)
            words.append((s, name, u, inject(s.field, fcc_encode(s, u), w, seed=rng)))
    tracemalloc.start()
    try:
        for s, name, u, y in words:
            f = builtin_function(name, s.q, s.k)
            assert fcc_decode(s, f, 2, y).label == reference_label(name, s.q, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


def naive_critical_pair(f):
    """Oracle: sort every message by (weight, lex) and take the first
    message with a later distance-1 neighbour of another label."""
    seq = sorted(iter_messages(f.q, f.k), key=lambda u: (sum(1 for x in u if x), u))
    for i, u in enumerate(seq):
        for v in seq[i + 1 :]:
            if hamming_distance(u, v) == 1 and f.label(u) != f.label(v):
                return u, v
    return None


class TestCriticalPair:
    def test_budget_details_shape(self):
        with pytest.raises(BudgetExceeded) as exc:
            find_critical_pair(builtin_function("or", 2, 3), budget=7)
        assert str(exc.value) == "critical-pair scan needs 8 messages, budget is 7"
        assert exc.value.details == {"required": 8, "budget": 7, "unit": "messages"}

    def test_or_example(self):
        f = builtin_function("or", 2, 3)
        assert find_critical_pair(f) == ((0, 0, 0), (0, 0, 1))

    def test_constant_none(self):
        assert find_critical_pair(builtin_function("constant", 3, 2)) is None
        assert find_critical_pair(builtin_function("constant", 2, 4)) is None

    def test_identity_k1(self):
        assert find_critical_pair(builtin_function("identity", 2, 1)) == ((0,), (1,))

    def test_pair_is_always_distance_one_with_distinct_labels(self):
        rng = random.Random(99)
        for _ in range(50):
            q = rng.choice([2, 3, 4])
            k = rng.randint(1, 3)
            values = tuple(rng.randrange(2) for _ in range(q**k))
            f = FunctionTable(q, k, values)
            pair = find_critical_pair(f)
            if pair is None:
                assert f.image_size == 1
            else:
                u, v = pair
                assert hamming_distance(u, v) == 1
                assert f.label(u) != f.label(v)

    def test_weight_shells_concatenate_to_weight_order(self):
        for q, k in [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2), (9, 2)]:
            shells = [u for w in range(k + 1) for u in messages_of_weight(q, k, w)]
            assert shells == messages_by_weight(q, k)

    def test_matches_sorting_oracle(self):
        rng = random.Random(2026)
        for _ in range(80):
            q = rng.choice([2, 3, 4, 5])
            k = rng.randint(1, 4 if q < 4 else 3)
            theta = rng.randint(0, k)
            values = tuple(
                0 if sum(1 for x in u if x) < theta else rng.randrange(2)
                for u in iter_messages(q, k)
            )
            f = FunctionTable(q, k, values)
            assert find_critical_pair(f) == naive_critical_pair(f)

    def test_none_iff_constant_all_256_functions(self):
        for mask in range(256):
            values = tuple((mask >> i) & 1 for i in range(8))
            f = FunctionTable(2, 3, values)
            pair = find_critical_pair(f)
            assert (pair is None) == (f.image_size == 1)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_systematic_prefix_property(data):
    q = data.draw(st.sampled_from([2, 3, 4]))
    k = data.draw(st.integers(min_value=1, max_value=3))
    t = data.draw(st.integers(min_value=1, max_value=2))
    u = data.draw(st.tuples(*[st.integers(0, q - 1)] * k))
    s = or_scheme(q, k, t)
    assert fcc_encode(s, u)[:k] == u


# Fields: prime, 2^m and odd p^m, with k small enough for the pair oracle.
_MAX_K = {2: 6, 3: 4, 4: 3, 5: 3, 7: 2, 8: 2, 9: 2}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_linear_verify_matches_pair_oracle(data):
    q = data.draw(st.sampled_from(sorted(_MAX_K)))
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K[q]))
    r = data.draw(st.integers(min_value=0, max_value=3))  # short r: failures occur
    t = data.draw(st.integers(min_value=0, max_value=2))
    symbol = st.integers(0, q - 1)
    rows = [
        tuple(1 if j == i else 0 for j in range(k)) + data.draw(st.tuples(*[symbol] * r))
        for i in range(k)
    ]
    s = FccScheme.linear(GeneratorMatrix(Field(q), rows))
    n_labels = data.draw(st.sampled_from([1, 2, 3, q**k]))
    values = tuple(
        data.draw(st.lists(st.integers(0, n_labels - 1), min_size=q**k, max_size=q**k))
    )
    f = FunctionTable(q, k, values)
    assert verdict(verify_fcc(s, f, t)) == pair_scan_verify(s, f, t)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_linear_verify_matches_min_weight(data):
    # a linear scheme passes for every f exactly when its minimum weight
    # is at least 2t+1; identity labels every pair differently, so it
    # passes for no lighter scheme.  Prime, 2^m and odd p^m fields; r = 0
    # and zero parity rows give d = 1
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25]))
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K.get(q, 2)))
    r = data.draw(st.integers(min_value=0, max_value=4))
    symbol = st.integers(0, q - 1)
    rows = [
        tuple(1 if j == i else 0 for j in range(k)) + data.draw(st.tuples(*[symbol] * r))
        for i in range(k)
    ]
    s = FccScheme.linear(GeneratorMatrix(Field(q), rows))
    d = min(
        hamming_weight(linear_encode(s.generator, u))
        for u in itertools.islice(iter_messages(q, k), 1, None)
    )
    f = builtin_function("identity", q, k)
    for t in range(s.n // 2 + 2):
        assert verify_fcc(s, f, t).ok == (d >= 2 * t + 1), t


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_linear_pass_counts_pairs_from_the_rule(data):
    # a passing linear scheme takes pairs_checked from the built-in's
    # closed-form label counts, building no table, and agrees with the
    # pair-by-pair oracle; prime, 2^m and odd p^m fields
    q = data.draw(st.sampled_from(sorted(_MAX_K)), label="q")
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K[q]), label="k")
    r = data.draw(st.integers(min_value=0, max_value=4), label="r")
    symbol = st.integers(0, q - 1)
    rows = [
        tuple(1 if j == i else 0 for j in range(k)) + data.draw(st.tuples(*[symbol] * r))
        for i in range(k)
    ]
    s = FccScheme.linear(GeneratorMatrix(Field(q), rows))
    d = min(
        hamming_weight(linear_encode(s.generator, u))
        for u in itertools.islice(iter_messages(q, k), 1, None)
    )
    t = (d - 1) // 2
    name, aux = data.draw(st.sampled_from(list(builtin_cases(q, k))), label="builtin")
    f = builtin_function(name, q, k, aux)
    result = verify_fcc(s, f, t)
    assert result.ok and f._values is None
    assert verdict(result) == pair_scan_verify(s, builtin_function(name, q, k, aux), t)


def _pool_table_scheme(data, q, k, r):
    """A table scheme whose rows repeat a drawn pool of 1-3 parities, so
    equal rows and violations both occur."""
    symbol = st.integers(0, q - 1)
    pool = data.draw(st.lists(st.tuples(*[symbol] * r), min_size=1, max_size=3), label="pool")
    picks = st.integers(0, len(pool) - 1)
    rows = [pool[i] for i in data.draw(st.lists(picks, min_size=q**k, max_size=q**k))]
    return FccScheme.tabular(q, k, rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_matches_pair_scan_oracle(data):
    # table schemes from a parity pool and linear schemes, passing and
    # failing, over prime, 2^m and odd p^m fields; labels from 1-3
    # classes or identity; t = 0..3
    q = data.draw(st.sampled_from(sorted(_MAX_K)), label="q")
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K[q]), label="k")
    r = data.draw(st.integers(min_value=0, max_value=4), label="r")
    if data.draw(st.booleans(), label="table"):
        s = _pool_table_scheme(data, q, k, r)
    else:
        symbol = st.integers(0, q - 1)
        rows = [
            tuple(1 if j == i else 0 for j in range(k)) + data.draw(st.tuples(*[symbol] * r))
            for i in range(k)
        ]
        s = FccScheme.linear(GeneratorMatrix(Field(q), rows))
    classes = data.draw(st.sampled_from([1, 2, 3, None]), label="classes")
    if classes is None:
        f = builtin_function("identity", q, k)
    else:
        label = st.integers(0, classes - 1)
        f = FunctionTable(q, k, tuple(data.draw(st.lists(label, min_size=q**k, max_size=q**k))))
    t = data.draw(st.integers(min_value=0, max_value=3), label="t")
    assert verdict(verify_fcc(s, f, t)) == pair_scan_verify(s, f, t)


_POOL_257 = [(0, 0), (1, 200), (256, 7)]


@pytest.mark.parametrize(
    "scheme, f, t, ok",
    [
        # r = 0: the codewords are the messages, at distance >= 1
        (FccScheme.tabular(2, 3, [()] * 8), builtin_function("identity", 2, 3), 0, True),
        (FccScheme.tabular(3, 2, [()] * 9), builtin_function("or", 3, 2), 1, False),
        # a constant f gives no row a candidate, on a linear scheme that
        # fails min_distance >= 2t+1 (d = 3) and so takes the pair scan
        (rs_systematic(5, 2, 1).scheme, builtin_function("constant", 5, 2), 2, True),
        # q > 256: the parity (x, x) keeps every pair at distance 3
        (FccScheme.tabular(257, 1, [(x, x) for x in range(257)]),
         builtin_function("identity", 257, 1), 1, True),
        (FccScheme.tabular(257, 1, [_POOL_257[x % 3] for x in range(257)]),
         FunctionTable(257, 1, tuple(x % 3 for x in range(257))), 1, True),
        (FccScheme.tabular(257, 1, [_POOL_257[x % 3] for x in range(257)]),
         builtin_function("identity", 257, 1), 1, False),
    ],
    ids=["r0-identity", "r0-or", "constant-on-failing-linear", "q257-identity",
         "q257-three-classes", "q257-pool-identity"],
)
def test_verify_fixed_cases_match_pair_scan_oracle(scheme, f, t, ok):
    result = verify_fcc(scheme, f, t)
    assert result.ok == ok
    assert verdict(result) == pair_scan_verify(scheme, f, t)


def full_scan_decode(scheme, f, y):
    """Oracle: label and distance of the least (distance, rank) over all
    q^k codewords."""
    d, rank = min(
        (hamming_distance(y, fcc_encode(scheme, u)), rank)
        for rank, u in enumerate(iter_messages(scheme.q, scheme.k))
    )
    return f.values[rank], d


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decode_matches_full_scan_oracle(data):
    # linear schemes over prime, 2^m and odd p^m fields, and table schemes
    # whose parity rows repeat, so that codewords tie; identity labels make
    # the label the rank, so ties must go to the lowest rank.  A built-in
    # is decoded from both label stores: its rule, and the same labels
    # loaded from a function file
    q = data.draw(st.sampled_from(sorted(_MAX_K)))
    k = data.draw(st.integers(min_value=1, max_value=_MAX_K[q]))
    r = data.draw(st.integers(min_value=0, max_value=3))
    t = data.draw(st.integers(min_value=0, max_value=3))
    total = q**k
    parity = st.tuples(*[st.integers(0, q - 1)] * r)
    if data.draw(st.booleans()):
        rows = [tuple(int(j == i) for j in range(k)) + data.draw(parity) for i in range(k)]
        s = CountingScheme.linear(GeneratorMatrix(Field(q), rows))
    else:
        pool = data.draw(st.lists(parity, min_size=1, max_size=3))
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=total, max_size=total))
        s = CountingScheme.tabular(q, k, rows)
    n_labels = data.draw(st.sampled_from([1, 2, 3, "identity", "builtin"]))
    if n_labels in ("identity", "builtin"):
        name, aux = "identity", None
        if n_labels == "builtin":
            name, aux = data.draw(st.sampled_from(list(builtin_cases(q, k))), label="builtin")
        f = builtin_function(name, q, k, aux)
        stores = [f, parse_function_file(serialize_function_file(builtin_function(name, q, k, aux)))]
    else:
        values = tuple(
            data.draw(st.lists(st.integers(0, n_labels - 1), min_size=total, max_size=total))
        )
        stores = [FunctionTable(q, k, values)]
    u = unrank_message(data.draw(st.integers(0, total - 1)), q, k)
    weight = data.draw(st.integers(min_value=0, max_value=s.n))
    y = inject(s.field, fcc_encode(s, u), weight, seed=data.draw(st.integers(0, 2**32 - 1)))
    label, d = full_scan_decode(s, stores[-1], y)
    for f in stores:
        s.encoded = 0
        out = fcc_decode(s, f, t, y, strict=False)
        assert (out.label, out.distance, out.within_radius) == (label, d, d <= t)
        # the rings stop at the nearest distance d: the messages within d of y[:k]
        assert s.encoded == hamming_ball_volume(k, min(d, k), q)
        if d <= t:
            assert fcc_decode(s, f, t, y) == out
        else:
            with pytest.raises(BeyondRadius) as exc:
                fcc_decode(s, f, t, y)
            assert exc.value.distance == d
    # the rule-backed store decoded without building its table
    assert stores[0]._rule is None or stores[0]._values is None


def _tied_table_scheme():
    # three parities over the 16 messages of F_4^2, so codewords tie
    pool = [(0, 0), (1, 2), (3, 3)]
    return FccScheme.tabular(4, 2, [pool[rank % 3] for rank in range(16)])


@pytest.mark.parametrize(
    "scheme,t",
    [
        pytest.param(or_scheme(3, 2, 1), 1, id="or-q3-k2-t1"),
        pytest.param(rs_systematic(5, 2, 1).scheme, 1, id="rs-5-2-1"),
        pytest.param(_tied_table_scheme(), 1, id="tied-table-q4-k2"),
    ],
)
def test_decode_every_received_word(scheme, t):
    # every word of F_q^n, within t and beyond it; identity labels make
    # the label the rank, so ties must go to the lowest rank
    q, k = scheme.q, scheme.k
    f = FunctionTable(q, k, tuple(range(q**k)))
    for y in itertools.product(range(q), repeat=scheme.n):
        label, d = full_scan_decode(scheme, f, y)
        out = fcc_decode(scheme, f, t, y, strict=False)
        assert (out.label, out.distance, out.within_radius) == (label, d, d <= t), y
        if d <= t:
            assert fcc_decode(scheme, f, t, y) == out
        else:
            with pytest.raises(BeyondRadius) as exc:
                fcc_decode(scheme, f, t, y)
            assert exc.value.distance == d


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_messages_at_distance_are_the_rings(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 9]))
    k = data.draw(st.integers(min_value=1, max_value=4 if q < 5 else 2))
    center = data.draw(st.tuples(*[st.integers(0, q - 1)] * k))
    rings = [list(messages_at_distance(center, q, s)) for s in range(k + 2)]
    for s, ring in enumerate(rings):
        assert len(ring) == len(set(ring)) == math.comb(k, s) * (q - 1) ** s
        assert all(hamming_distance(u, center) == s for u in ring)
    assert sorted(u for ring in rings for u in ring) == list(iter_messages(q, k))
