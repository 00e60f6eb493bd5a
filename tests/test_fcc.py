"""Function tables, scheme encoding, the verifier, the decoder, and the
critical-pair scan."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcckit.channel import enumerate_errors, inject
from fcckit.constructions import bch_systematic, or_scheme, rs_systematic
from fcckit.errors import (
    BeyondRadius,
    BudgetExceeded,
    DimensionError,
    NotSystematic,
    UnknownFunction,
)
from fcckit.codes import GeneratorMatrix
from fcckit.fcc import (
    BUILTIN_NAMES,
    FccScheme,
    FunctionTable,
    builtin_function,
    fcc_decode,
    fcc_encode,
    find_critical_pair,
    identity_scheme,
    verify_fcc,
)
from fcckit.gf import Field
from fcckit.vectors import (
    hamming_distance,
    hamming_weight,
    iter_messages,
    message_rank,
    messages_by_weight,
    messages_of_weight,
)


class TestBuiltinFunctions:
    def test_or(self):
        f = builtin_function("or", 2, 3)
        assert f.values == (0, 1, 1, 1, 1, 1, 1, 1)
        assert f.image_size == 2

    def test_constant(self):
        f = builtin_function("constant", 3, 2)
        assert len(set(f.values)) == 1
        assert f.image_size == 1

    def test_hamming_weight(self):
        f = builtin_function("hamming_weight", 2, 2)
        assert f.values == (0, 1, 1, 2)

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


def loop_builtin_function(name, q, k, aux=None):
    """Oracle: the function table built by one Python loop per message."""
    messages = iter_messages(q, k)
    if name == "or":
        return tuple(0 if all(x == 0 for x in u) else 1 for u in messages)
    if name == "constant":
        return (0,) * q**k
    if name == "identity":
        return tuple(range(q**k))
    if name == "hamming_weight":
        return tuple(hamming_weight(u) for u in messages)
    if name == "linear":
        f = Field(q)
        values = []
        for u in messages:
            acc = 0
            for a, x in zip(aux, u):
                acc = f.add(acc, f.mul(a, x))
            values.append(acc)
        return tuple(values)
    theta = aux[0] if isinstance(aux, tuple) else aux
    return tuple(1 if hamming_weight(u) >= theta else 0 for u in messages)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from((2, 3, 4, 5, 7, 8, 9)),
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
    assert got.values == loop_builtin_function(name, q, k, aux)


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


def naive_verify(scheme, f, t):
    """Oracle: compare every unordered pair with different labels on full
    codewords, in (rank, rank) order.  Returns (ok, violating pair,
    distance, pairs checked) as ``verify_fcc`` reports them."""
    messages = list(iter_messages(scheme.q, scheme.k))
    words = [fcc_encode(scheme, u) for u in messages]
    checked = 0
    for i, j in itertools.combinations(range(len(words)), 2):
        if f.values[i] == f.values[j]:
            continue
        checked += 1
        d = hamming_distance(words[i], words[j])
        if d < 2 * t + 1:
            return False, (messages[i], messages[j]), d, checked
    return True, None, None, checked


def verdict(result):
    return result.ok, result.violating_pair, result.distance, result.pairs_checked


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
        s = identity_scheme(2, 3)
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

    def test_budget_refuses_before_any_work(self):
        # 2^16 messages are 2^31 - 2^15 pairs, far over the default budget
        s = bch_systematic(16, 3).scheme
        with pytest.raises(BudgetExceeded) as exc:
            verify_fcc(s, builtin_function("or", 2, 16), 3)
        assert exc.value.details["required"] == 2**16 * (2**16 - 1) // 2
        assert s._codebook is None

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
            assert verdict(verify_fcc(s, f, t)) == naive_verify(s, f, t)

    def test_negative_t_rejected(self):
        with pytest.raises(DimensionError):
            verify_fcc(or_scheme(2, 3, 1), builtin_function("or", 2, 3), -1)
        with pytest.raises(DimensionError):
            verify_fcc(rs_systematic(5, 2, 1).scheme, builtin_function("or", 5, 2), -1)

    def test_linear_pass_past_codebook_cap(self):
        # 17^4 > 65536 messages: the weight pass streams the odometer, and
        # pairs_checked is the closed-form count of different-label pairs
        s = rs_systematic(17, 4, 2).scheme
        result = verify_fcc(s, builtin_function("or", 17, 4), 2, budget=2**33)
        assert verdict(result) == (True, None, None, 17**4 - 1)
        assert s._codebook is None

    def test_linear_failure_past_codebook_cap(self):
        # d = 3 < 2t+1 = 5: the first violation pairs zero with the
        # lowest-rank message whose codeword has weight below 5
        s = rs_systematic(17, 4, 1).scheme
        result = verify_fcc(s, builtin_function("or", 17, 4), 2, budget=2**33)
        rank, v = next(
            (rank, v)
            for rank, v in enumerate(iter_messages(17, 4))
            if rank and sum(1 for x in fcc_encode(s, v) if x) < 5
        )
        want_d = sum(1 for x in fcc_encode(s, v) if x)
        assert verdict(result) == (False, ((0, 0, 0, 0), v), want_d, rank)
        assert s._codebook is None

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
        for u in iter_messages(scheme.q, scheme.k):
            cw = fcc_encode(scheme, u)
            for err in enumerate_errors(scheme.n, 1, scheme.q):
                y = tuple(field.add(a, b) for a, b in zip(cw, err.vector))
                out = fcc_decode(scheme, f, 1, y)
                assert out.label == f.label(u)
                assert out.within_radius

    def test_exhaustive_guarantee_rs_identity(self):
        rep = rs_systematic(5, 3, 1)
        scheme = rep.scheme
        f = builtin_function("identity", 5, 3)
        field = scheme.field
        for u in iter_messages(5, 3):
            cw = fcc_encode(scheme, u)
            for err in enumerate_errors(scheme.n, 1, 5):
                y = tuple(field.add(a, b) for a, b in zip(cw, err.vector))
                out = fcc_decode(scheme, f, 1, y)
                assert out.label == f.label(u)

    def test_exact_match_fills_codebook(self):
        s = rs_systematic(13, 4, 3).scheme
        f = builtin_function("identity", 13, 4)
        y = fcc_encode(s, (12, 12, 12, 12))
        out = fcc_decode(s, f, 3, y)
        assert (out.label, out.distance) == (13**4 - 1, 0)
        assert len(s._codebook) == 13**4
        assert fcc_decode(s, f, 3, y) == out

    def test_negative_t_rejected(self):
        s = or_scheme(2, 3, 1)
        with pytest.raises(DimensionError):
            fcc_decode(s, builtin_function("or", 2, 3), -1, (0, 0, 0, 0, 0))

    def test_scheme_over_codebook_cap(self):
        # 17^4 > 65536 messages: every decode streams the odometer's
        # in-place list, and no codebook is kept
        s = rs_systematic(17, 4, 2).scheme
        f = builtin_function("identity", 17, 4)
        rng = random.Random(20261018)
        for weight in (0, 1, 2, 2):
            u = tuple(rng.randrange(17) for _ in range(4))
            y = inject(s.field, fcc_encode(s, u), weight, seed=rng)
            out = fcc_decode(s, f, 2, y)
            assert (out.label, out.distance) == (f.label(u), weight)
        assert s._codebook is None


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
    assert verdict(verify_fcc(s, f, t)) == naive_verify(s, f, t)
