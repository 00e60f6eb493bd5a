"""Field arithmetic and minimal polynomials."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fcckit.gf
from fcckit.errors import DivisionByZero, FieldMismatch, InvalidOrder
from fcckit.gf import Field, canonical_modulus, prime_power_split

ROOT = Path(__file__).resolve().parent.parent

SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def is_prime_power(q: int) -> bool:
    try:
        prime_power_split(q)
    except InvalidOrder:
        return False
    return True


@pytest.fixture(scope="module")
def fields():
    return {q: Field(q) for q in SMALL_ORDERS}


class TestFieldMake:
    def test_prime_order(self):
        f = Field(7)
        assert (f.p, f.m) == (7, 1)

    def test_gf4_modulus(self):
        f = Field(4)
        assert (f.p, f.m) == (2, 2)
        assert f.modulus == (1, 1, 1)  # x^2 + x + 1

    def test_non_prime_power(self):
        with pytest.raises(InvalidOrder):
            Field(6)
        with pytest.raises(InvalidOrder):
            Field(12)
        with pytest.raises(InvalidOrder):
            Field(1)

    def test_prime_power_split_matches_a_sieve(self):
        # every q < 2^16 is accepted with (p, m) exactly when the sieve of
        # Eratosthenes lists it as a power p^m of a prime p
        limit = 1 << 16
        composite = bytearray(limit)
        powers = {}
        for p in range(2, limit):
            if not composite[p]:
                composite[p * p :: p] = b"\1" * len(range(p * p, limit, p))
                m, pm = 1, p
                while pm < limit:
                    powers[pm] = (p, m)
                    m, pm = m + 1, pm * p
        for q in range(limit):
            try:
                got = prime_power_split(q)
            except InvalidOrder as exc:
                if q < 2:
                    assert str(exc) == f"field order must be at least 2, got {q}"
                else:
                    assert str(exc) == f"{q} is not a prime power"
                got = None
            assert got == powers.get(q), q

    def test_canonical_moduli_reproduce_familiar_tables(self):
        assert Field(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert Field(16).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
        assert Field(9).modulus == (1, 0, 1)  # x^2 + 1
        assert canonical_modulus(2, 5) == (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1

    def test_equality_and_hash(self):
        # one instance per order: identity is equality
        for q in SMALL_ORDERS:
            assert Field(q) is Field(q)
        assert Field(16) != Field(4)
        assert {Field(9): "nine"}[Field(9)] == "nine"

    @pytest.mark.parametrize("q", [5, 9, 16, 2048])
    def test_pickle_and_copy_keep_the_interned_instance(self, q):
        f = Field(q)
        f.mul(2, 3)  # with its tables built
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert len(pickle.dumps(f)) < 64  # carries q, not the tables

    def test_invalid_order_is_never_cached(self):
        for _ in range(3):
            with pytest.raises(InvalidOrder):
                Field(6)
        assert 6 not in fcckit.gf._FIELDS

    def test_concurrent_first_calls_share_one_instance(self):
        # orders no other test builds, so each call below is a first one
        orders = (3**7, 7**4, 5**5)
        assert not set(orders) & set(fcckit.gf._FIELDS)
        got = {q: [] for q in orders}
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=30)
            for q in orders:
                f = Field(q)
                got[q].append((f, f.mul(2, 2)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for q in orders:
            assert len(got[q]) == 8
            assert {id(f) for f, _ in got[q]} == {id(Field(q))}
            assert {product for _, product in got[q]} == {4 % Field(q).p}


class TestArithmetic:
    def test_inverse_examples(self):
        f7 = Field(7)
        assert f7.inv(3) == 5
        assert f7.inv(1) == 1
        with pytest.raises(DivisionByZero):
            f7.inv(0)

    def test_field_axioms_exhaustive(self, fields):
        for q in SMALL_ORDERS:
            f = fields[q]
            elems = range(q)
            for a, b in itertools.product(elems, repeat=2):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
            for a, b, c in itertools.product(elems, repeat=3):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_unique_inverses(self, fields):
        for q in SMALL_ORDERS:
            f = fields[q]
            for a in range(1, q):
                inverses = [b for b in range(q) if f.mul(a, b) == 1]
                assert inverses == [f.inv(a)]

    @given(q=st.sampled_from(SMALL_ORDERS), data=st.data())
    def test_double_inverse(self, q, data):
        f = Field(q)
        a = data.draw(st.integers(min_value=1, max_value=q - 1))
        assert f.inv(f.inv(a)) == a

    def test_sub_neg_consistency(self, fields):
        for q in (5, 8, 9):
            f = fields[q]
            for a, b in itertools.product(range(q), repeat=2):
                assert f.add(f.sub(a, b), b) == a
                assert f.add(a, f.neg(a)) == 0

    def test_negative_pow(self, fields):
        for q in (7, 8, 9):
            f = fields[q]
            for a in range(1, q):
                assert f.pow(a, -1) == f.inv(a)

    def test_primitive_element_order(self):
        # brute force: g's powers 1..q-1 are all distinct, and every
        # smaller nonzero index repeats one, so g is the smallest element
        # of order q - 1.  The fields: every prime power up to 343 (each
        # prime, 2^m and odd p^m order the tests use) and the BCH
        # extension fields up to 2^11 (bch_systematic(1000, 5)).
        def distinct_powers(f, a):
            seen, x = set(), 1
            for _ in range(f.q - 1):
                x = f.mul(x, a)
                seen.add(x)
            return len(seen)

        orders = [q for q in range(2, 344) if is_prime_power(q)] + [512, 1024, 2048]
        for q in orders:
            f = Field(q)
            g = f.primitive_element()
            assert distinct_powers(f, g) == q - 1, q
            for a in range(1, g):
                assert distinct_powers(f, a) < q - 1, (q, a)

    def test_out_of_range_index(self):
        with pytest.raises(FieldMismatch):
            Field(4).check(4)


ODD_PM_ORDERS = (9, 25, 27, 49, 81, 121, 125, 169, 243, 289, 343)


def coeff_add(f: Field, a: int, b: int) -> int:
    """Oracle: add coefficient by coefficient over F_p."""
    return f.from_coeffs((x + y) % f.p for x, y in zip(f.coeffs(a), f.coeffs(b)))


def coeff_neg(f: Field, a: int) -> int:
    """Oracle: negate coefficient by coefficient over F_p."""
    return f.from_coeffs((-x) % f.p for x in f.coeffs(a))


class TestZechAddition:
    @pytest.mark.parametrize(
        "field",
        [Field(q) for q in ODD_PM_ORDERS],
        # each id names the modulus its Zech table is checked under
        ids=lambda f: f"Field({f.q}, modulus={list(f.modulus)})",
    )
    def test_matches_coefficient_formulas(self, field):
        q = field.q
        neg = [coeff_neg(field, a) for a in range(q)]
        for a in range(q):
            assert field.neg(a) == neg[a]
            for b in range(q):
                s = coeff_add(field, a, b)
                assert field.add(a, b) == s
                assert field.sub(s, b) == a

    def test_add_before_any_mul(self):
        # the Zech table is built on first use by add as well as by mul;
        # this process has long built Field(49)'s tables, so the first
        # add runs in a fresh interpreter
        code = (
            "from fcckit.gf import Field\n"
            "f = Field(49)\n"
            "assert f._zech is None and f._exp is None\n"
            "print(f.add(1, 48), Field(49).neg(8))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        f = Field(49)
        assert proc.stdout.split() == [str(coeff_add(f, 1, 48)), str(coeff_neg(f, 8))]


def _orbit_product(field: Field, beta: int) -> tuple[int, ...]:
    """Oracle: expand prod (x - beta^(p^i)) over the conjugacy orbit,
    multiplying symbolically in the extension field."""
    orbit = []
    conj = beta
    while conj not in orbit:
        orbit.append(conj)
        conj = field.pow(conj, field.p)
    coeffs = [1]
    for root in orbit:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.add(nxt[i], field.mul(field.neg(root), c))
        coeffs = nxt
    return tuple(coeffs)


def minimal_poly(field: Field, beta: int) -> tuple[int, ...]:
    """Oracle: the monic polynomial over F_p of least degree vanishing at
    beta, as its coefficients in F_p, lowest degree first (the last one
    is 1).

    Found as the first linear dependency among the powers 1, beta,
    beta^2, ... viewed as F_p-coordinate vectors, so the result is
    independent of any conjugacy-orbit bookkeeping.
    """
    field.check(beta)
    p, m = field.p, field.m
    # Row-reduced basis of the span of lower powers, with the combination
    # of original powers that produced each reduced row.
    basis: list[tuple[list[int], list[int], int]] = []  # (vector, combo, pivot)
    power = 1
    for j in range(m + 1):
        vec = list(field.coeffs(power))
        combo = [0] * (m + 1)
        combo[j] = 1
        for row_vec, row_combo, pivot in basis:
            c = vec[pivot]
            if c:
                for i in range(m):
                    vec[i] = (vec[i] - c * row_vec[i]) % p
                for i in range(m + 1):
                    combo[i] = (combo[i] - c * row_combo[i]) % p
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            return tuple(combo[: j + 1])
        inv = pow(vec[pivot], p - 2, p)
        vec = [(c * inv) % p for c in vec]
        combo = [(c * inv) % p for c in combo]
        basis.append((vec, combo, pivot))
        power = field.mul(power, beta)
    raise AssertionError("powers of beta cannot be independent beyond degree m")


@pytest.fixture(scope="module")
def gf16():
    return Field(16)


class TestMinimalPoly:
    def test_defining_element(self, gf16):
        assert minimal_poly(gf16, 2) == (1, 1, 0, 0, 1)

    def test_alpha_cubed(self, gf16):
        beta = gf16.pow(2, 3)
        mp = minimal_poly(gf16, beta)
        oracle = _orbit_product(gf16, beta)
        assert all(c in (0, 1) for c in oracle)
        assert mp == oracle == (1, 1, 1, 1, 1)

    def test_one(self, gf16):
        assert minimal_poly(gf16, 1) == (1, 1)  # x + 1

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
    def test_vanishes_and_degree_divides_m(self, q):
        f = Field(q)
        for beta in range(q):
            mp = minimal_poly(f, beta)
            assert mp[-1] == 1
            assert f.m % (len(mp) - 1) == 0
            # evaluate over the extension by embedding the F_p coefficients
            acc = 0
            for c in reversed(mp):
                acc = f.add(f.mul(acc, beta), c)
            assert acc == 0

    def test_matches_orbit_oracle_everywhere(self):
        f = Field(64)
        for beta in range(64):
            assert minimal_poly(f, beta) == _orbit_product(f, beta)
