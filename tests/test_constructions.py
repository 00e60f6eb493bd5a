"""The three encoders: systematic MDS, shortened binary BCH, OR-indicator."""

import hashlib

import pytest

from fcckit.bounds import bch_redundancy
from fcckit.codes import min_distance
from fcckit.constructions import bch_systematic, or_scheme, rs_systematic
from fcckit.errors import BudgetExceeded, DimensionError, FieldTooSmall, InvalidOrder
from fcckit.fcc import builtin_function, fcc_decode, fcc_encode, verify_fcc
from fcckit.gf import Field, prime_power_split
from fcckit.vectors import hamming_distance, iter_messages
from test_gf import minimal_poly


# Every prime power q <= 27 (prime, 2^m, and odd p^m up to 3^3), with
# every k, t >= 1 such that q >= k + 2t: 740 cells in about 1 s.
RS_ORACLE_MAX_Q = 27
RS_ORACLE_CELLS = 740

BCH_SWEEP_SHA256 = "0f03f3b6722b94d5bc2a67844f4a142a8b7b09c1175a7a1accc11847712804f8"


def bch_extension_degree(k: int, t: int) -> int:
    """The length-selection rule: minimal m with 2^m - 1 >= k + m*t."""
    m = 2
    while 2**m - 1 < k + m * t:
        m += 1
    return m


def division_bch_rows(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Oracle: the rows [e_i | x^(r+i) mod g] of bch_systematic, each
    remainder by its own long division over F_2 (polynomials as bit masks,
    bit j for x^j), with g the product of the distinct minimal polynomials
    of alpha^1..alpha^2t, each found by the linear-dependency solver of
    ``test_gf``, multiplied as coefficient tuples by the schoolbook
    product over F_2."""
    ext = Field(2 ** bch_extension_degree(k, t))
    alpha = ext.primitive_element()
    g = (1,)
    for mp in {minimal_poly(ext, ext.pow(alpha, i)) for i in range(1, 2 * t + 1)}:
        prod = [0] * (len(g) + len(mp) - 1)
        for a, x in enumerate(g):
            for b, y in enumerate(mp):
                prod[a + b] ^= x & y
        g = tuple(prod)
    r = len(g) - 1
    g_mask = sum(c << j for j, c in enumerate(g))
    rows = []
    for i in range(k):
        rem = 1 << (r + i)
        while rem.bit_length() > r:
            rem ^= g_mask << (rem.bit_length() - 1 - r)
        unit = tuple(1 if j == i else 0 for j in range(k))
        rows.append(unit + tuple((rem >> j) & 1 for j in range(r)))
    return tuple(rows)


def lagrange_rs_rows(q: int, k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Oracle: the rows [e_i | P_i] of rs_systematic, with P_i the values at
    the points k..k+2t-1 of the polynomial through (l, e_i[l]) for l < k,
    interpolated as a plain coefficient list (lowest degree first) and
    evaluated by Horner."""
    f = Field(q)
    rows = []
    for i in range(k):
        unit = tuple(1 if j == i else 0 for j in range(k))
        poly = [0] * k
        for j, y in enumerate(unit):
            if y == 0:
                continue
            # basis = y * prod over l != j of (x - l) / (j - l)
            basis = [y]
            for l in range(k):
                if l != j:
                    inv = f.inv(f.sub(j, l))
                    low, high = f.mul(f.neg(l), inv), inv
                    nxt = [0] * (len(basis) + 1)
                    for d, c in enumerate(basis):
                        nxt[d] = f.add(nxt[d], f.mul(c, low))
                        nxt[d + 1] = f.add(nxt[d + 1], f.mul(c, high))
                    basis = nxt
            poly = [f.add(a, b) for a, b in zip(poly, basis)]
        parity = []
        for x in range(k, k + 2 * t):
            acc = 0
            for c in reversed(poly):
                acc = f.add(f.mul(acc, x), c)
            parity.append(acc)
        rows.append(unit + tuple(parity))
    return tuple(rows)


def prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power_split(q)
        except InvalidOrder:
            continue
        out.append(q)
    return out


class TestRsSystematic:
    def test_7_3_2(self):
        rep = rs_systematic(7, 3, 2)
        assert (rep.n, rep.r, rep.claimed_distance) == (7, 4, 5)
        assert min_distance(rep.generator) == 5

    def test_5_3_1(self):
        rep = rs_systematic(5, 3, 1)
        assert rep.r == 2
        assert min_distance(rep.generator) == 3

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmall):
            rs_systematic(4, 3, 1)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            rs_systematic(6, 2, 1)

    def test_bad_parameters(self):
        with pytest.raises(DimensionError):
            rs_systematic(7, 0, 2)
        with pytest.raises(DimensionError):
            rs_systematic(7, 3, 0)

    def test_generators_match_lagrange_oracle(self):
        cells = 0
        for q in prime_powers(RS_ORACLE_MAX_Q):
            for t in range(1, q // 2 + 1):
                for k in range(1, q - 2 * t + 1):
                    rep = rs_systematic(q, k, t)
                    assert rep.generator.rows == lagrange_rs_rows(q, k, t), (q, k, t)
                    cells += 1
        assert cells == RS_ORACLE_CELLS

    @pytest.mark.parametrize("q,k,t", [(5, 2, 1), (7, 3, 2), (8, 3, 2), (9, 5, 2), (11, 5, 3)])
    def test_always_systematic_mds_with_exact_distance(self, q, k, t):
        rep = rs_systematic(q, k, t)
        g = rep.generator
        assert g.is_systematic()
        assert min_distance(g) == 2 * t + 1 == g.n - g.k + 1
        assert rep.r == 2 * t == rep.n - rep.k


class TestBchSystematic:
    def test_4_1_hamming_shape(self):
        rep = bch_systematic(4, 1)
        assert (rep.n, rep.r) == (7, 3)
        assert min_distance(rep.generator) == 3
        # parity rows of g = x^3 + x + 1: remainders of x^(3+i)
        assert [row[4:] for row in rep.generator.rows] == [
            (1, 1, 0),
            (0, 1, 1),
            (1, 1, 1),
            (1, 0, 1),
        ]

    def test_5_2(self):
        rep = bch_systematic(5, 2)
        assert (rep.n, rep.r) == (13, 8)
        assert min_distance(rep.generator) >= 5
        assert bch_extension_degree(5, 2) == 4

    def test_1_1_repetition(self):
        rep = bch_systematic(1, 1)
        assert (rep.n, rep.r) == (3, 2)
        assert min_distance(rep.generator) == 3

    def test_degree_cap(self):
        # 2^16 - 1 < 100000 + 16*3, so m = 17; it raises before building
        with pytest.raises(BudgetExceeded) as exc:
            bch_systematic(100000, 3)
        assert str(exc.value) == "BCH construction needs extension degree 17 > cap 16"
        assert exc.value.details == {"required": 17, "budget": 16, "unit": "extension degree"}

    def test_generators_match_division_oracle(self):
        # Row i depends on k only through m (which fixes g), so the least
        # and the largest k <= 300 of each (m, t) stand for the others.
        for t in range(1, 5):
            ks: dict[int, list[int]] = {}
            for k in range(1, 301):
                ks.setdefault(bch_extension_degree(k, t), []).append(k)
            for group in ks.values():
                for k in {group[0], group[-1]}:
                    rep = bch_systematic(k, t)
                    assert rep.generator.rows == division_bch_rows(k, t), (k, t)
                    assert rep.r == rep.n - k == len(rep.generator.rows[0]) - k

    def test_rows_match_the_pinned_sweep(self):
        # every k <= 300 at t <= 4, plus (1000, 5): the digest of the rows
        # the minimal-polynomial solver built, before the cosets did
        digest = hashlib.sha256()
        for k, t in [(k, t) for t in range(1, 5) for k in range(1, 301)] + [(1000, 5)]:
            digest.update(repr(bch_systematic(k, t).generator.rows).encode())
        assert digest.hexdigest() == BCH_SWEEP_SHA256

    @pytest.mark.parametrize("k,t", [(200, 30), (1000, 50)])
    def test_redundancy_is_the_coset_count_at_large_t(self, k, t):
        rep = bch_systematic(k, t)
        assert rep.r == bch_redundancy(k, t) == rep.n - k

    @pytest.mark.parametrize("k,t", [(1, 1), (4, 1), (7, 1), (5, 2), (3, 2), (2, 3)])
    def test_redundancy_within_mt_and_distance_designed(self, k, t):
        rep = bch_systematic(k, t)
        m = bch_extension_degree(k, t)
        assert rep.r <= m * t
        assert rep.n == k + rep.r
        assert rep.generator.is_systematic()
        assert min_distance(rep.generator) >= 2 * t + 1


class TestReportScheme:
    def test_one_scheme_per_report(self):
        report = rs_systematic(7, 3, 2)
        assert report.scheme is report.scheme

    def test_decodes_through_the_report_scheme(self):
        report = rs_systematic(9, 3, 2)
        f = builtin_function("identity", 9, 3)
        # the zero word is a codeword: the radius-0 ring finds it
        out = fcc_decode(report.scheme, f, 2, (0,) * 7)
        assert (out.label, out.distance) == (0, 0)
        # nothing lies within t = 2 of this word: the rings run on to the
        # nearest codeword, at distance 3
        y = (1, 1, 1, 0, 0, 0, 0)
        out = fcc_decode(report.scheme, f, 2, y, strict=False)
        # the full-scan oracle: the least (distance, rank) over all codewords
        d, rank = min(
            (hamming_distance(y, fcc_encode(report.scheme, u)), rank)
            for rank, u in enumerate(iter_messages(9, 3))
        )
        assert d == 3
        assert (out.label, out.distance, out.within_radius) == (f.values[rank], 3, False)


class TestOrScheme:
    def test_binary_parities(self):
        s = or_scheme(2, 3, 1)
        assert fcc_encode(s, (0, 0, 0)) == (0, 0, 0, 0, 0)
        assert fcc_encode(s, (0, 0, 1)) == (0, 0, 1, 1, 1)

    def test_k1_t2_distance(self):
        s = or_scheme(2, 1, 2)
        c0 = fcc_encode(s, (0,))
        c1 = fcc_encode(s, (1,))
        assert c0 == (0, 0, 0, 0, 0)
        assert c1 == (1, 1, 1, 1, 1)
        assert hamming_distance(c0, c1) == 5

    def test_ternary(self):
        s = or_scheme(3, 2, 1)
        c20 = fcc_encode(s, (2, 0))
        assert c20 == (2, 0, 1, 1)
        assert hamming_distance(c20, fcc_encode(s, (0, 0))) == 3

    def test_redundancy_is_2t(self):
        assert or_scheme(4, 2, 3).r == 6

    def test_valid_fcc_across_small_grid(self):
        for q in (2, 3, 4):
            f_cache = {}
            for k in range(1, 6):
                for t in range(1, 4):
                    if k not in f_cache:
                        f_cache[k] = builtin_function("or", q, k)
                    result = verify_fcc(or_scheme(q, k, t), f_cache[k], t)
                    assert result.ok, (q, k, t, result)


def test_nonzero_codeword_weight_meets_threshold():
    # every nonzero message gets weight w(u) + 2t >= 2t + 1
    s = or_scheme(3, 3, 2)
    for u in [(0, 0, 1), (2, 0, 0), (1, 2, 1)]:
        cw = fcc_encode(s, u)
        assert sum(1 for x in cw if x) >= 2 * 2 + 1
