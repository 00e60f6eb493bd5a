"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines for
passing criteria as well.  Every check carries its stated time limit.
"""

import random
import time

from fcckit.bounds import sphere_packing_min_r, upper_bound_binary
from fcckit.channel import inject
from fcckit.codes import min_distance
from fcckit.constructions import bch_systematic, or_scheme, rs_systematic
from fcckit.fcc import (
    FccScheme,
    FunctionTable,
    builtin_function,
    fcc_decode,
    fcc_encode,
    find_critical_pair,
    verify_fcc,
)
from fcckit.formats import (
    parse_function_file,
    parse_scheme_file,
    serialize_function_file,
    serialize_scheme_file,
)
from fcckit.gf import Field
from fcckit.search import exact_redundancy
from fcckit.vectors import iter_messages, messages_at_distance, unrank_message


def _report(number: int, description: str, checks) -> None:
    start = time.perf_counter()
    try:
        limit = checks()
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_or_function_redundancy():
    def checks():
        for k in (2, 3):
            f = builtin_function("or", 2, k)
            res = exact_redundancy(f, 1)
            assert res.r == 2
            assert verify_fcc(res.scheme(), f, 1).ok
        f = builtin_function("or", 2, 2)
        res = exact_redundancy(f, 2)
        assert res.r == 4
        assert verify_fcc(res.scheme(), f, 2).ok
        return 60.0

    _report(1, "OR-function optimal redundancy 2t with witnesses", checks)


def test_criterion_2_constant_and_identity_extremes():
    def checks():
        assert exact_redundancy(builtin_function("constant", 2, 3), 2).r == 0
        assert exact_redundancy(builtin_function("identity", 2, 2), 1).r == 3
        return 60.0

    _report(2, "constant needs 0, bijective needs > 2t", checks)


def test_criterion_3_lower_bound_all_254_functions():
    def checks():
        violations = []
        for mask in range(1, 255):
            values = tuple((mask >> i) & 1 for i in range(8))
            f = FunctionTable(2, 3, values)
            r = exact_redundancy(f, 1).r
            if r < 2:
                violations.append((mask, r))
        assert violations == []
        return 600.0

    _report(3, "r >= 2t over every non-constant binary function on F_2^3", checks)


def test_criterion_4_mds_achievability():
    def checks():
        g = rs_systematic(11, 5, 3).generator
        assert g.is_systematic()
        assert min_distance(g) == 7 == 2 * 3 + 1 == g.n - g.k + 1
        boundary = rs_systematic(7, 3, 2)
        assert min_distance(boundary.generator) == 5
        return 60.0

    _report(4, "systematic MDS with d exactly 2t+1 at and above q = k+2t", checks)


def test_criterion_5_bch_constructive_bound():
    def checks():
        rep = bch_systematic(5, 2)
        assert rep.r == 8
        assert rep.r <= 8  # floor(2*log2(16))
        assert min_distance(rep.generator) >= 5
        rep = bch_systematic(4, 1)
        assert (rep.n, rep.k, rep.r) == (7, 4, 3)  # floor(log2(8)) parity bits
        assert min_distance(rep.generator) == 3
        return 10.0

    _report(5, "shortened BCH hits the t*log2(n+1) redundancy", checks)


def test_criterion_6_decode_guarantee():
    def checks():
        scheme = or_scheme(2, 3, 1)
        f = builtin_function("or", 2, 3)
        field = scheme.field
        zero = (0,) * scheme.n
        errors = [e for w in (0, 1) for e in messages_at_distance(zero, 2, w)]
        successes = 0
        trials = 0
        for u in iter_messages(2, 3):
            cw = fcc_encode(scheme, u)
            for err in errors:
                trials += 1
                y = tuple(field.add(a, b) for a, b in zip(cw, err))
                out = fcc_decode(scheme, f, 1, y)
                if out.label == f.label(u) and out.within_radius:
                    successes += 1
        assert (successes, trials) == (48, 48)

        rep = rs_systematic(7, 3, 2)
        scheme = rep.scheme
        f = builtin_function("identity", 7, 3)
        rng = random.Random(20250101)
        failures = 0
        for _ in range(1000):
            u = unrank_message(rng.randrange(7**3), 7, 3)
            weight = rng.randint(0, 2)
            y = inject(scheme.field, fcc_encode(scheme, u), weight, seed=rng)
            out = fcc_decode(scheme, f, 2, y)
            if out.label != f.label(u):
                failures += 1
        assert failures == 0
        return 120.0

    _report(6, "all within-radius errors decode to f(u)", checks)


def test_criterion_7_hamming_bound_exceeds_2t():
    def checks():
        for k in range(2, 11):
            for t in range(1, 4):
                assert sphere_packing_min_r(2, k, t) >= 2 * t + 1, (k, t)
        return 1.0

    _report(7, "classical ECC needs more than 2t parity bits for k >= 2", checks)


def test_criterion_8_bch_below_binary_upper_bound():
    def checks():
        for k, t in ((7, 1), (10, 2), (16, 2)):
            rep = bch_systematic(k, t)
            bound = upper_bound_binary(k, t)
            assert rep.r < bound, (k, t, rep.r, bound)
        # rule-derived redundancies and 1e-9-accurate bound values
        assert bch_systematic(7, 1).r == 4
        assert abs(upper_bound_binary(7, 1) - 4.795757053193367) < 1e-9
        assert bch_systematic(10, 2).r == 10
        assert abs(upper_bound_binary(10, 2) - 12.149444999979433) < 1e-9
        assert bch_systematic(16, 2).r == 10
        assert abs(upper_bound_binary(16, 2) - 12.200134125048452) < 1e-9
        return 10.0

    _report(8, "constructive redundancy sits under the binary upper bound", checks)


def test_criterion_9_property_suites():
    def checks():
        # parity translation invariance, 100 seeded tabular schemes
        rng = random.Random(424242)
        for _ in range(100):
            q = rng.choice([2, 3, 4])
            field = Field(q)
            k = rng.randint(1, 3)
            r = rng.randint(1, 3)
            t = rng.randint(1, 2)
            table = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(q**k)]
            values = tuple(rng.randrange(2) for _ in range(q**k))
            f = FunctionTable(q, k, values)
            shift = tuple(rng.randrange(q) for _ in range(r))
            shifted = [
                tuple(field.add(x, c) for x, c in zip(row, shift)) for row in table
            ]
            assert (
                verify_fcc(FccScheme.tabular(q, k, table), f, t).ok
                == verify_fcc(FccScheme.tabular(q, k, shifted), f, t).ok
            )

        # critical pair exists iff the function is non-constant
        for mask in range(256):
            values = tuple((mask >> i) & 1 for i in range(8))
            f = FunctionTable(2, 3, values)
            assert (find_critical_pair(f) is None) == (f.image_size == 1)

        # the error rings around zero, out to min(t, n), count the Hamming ball
        from fcckit.bounds import hamming_ball_volume

        for n in range(1, 9):
            zero = (0,) * n
            for t in range(0, 4):
                for q in (2, 3, 4, 5):
                    got = sum(
                        1 for w in range(min(t, n) + 1) for _ in messages_at_distance(zero, q, w)
                    )
                    assert got == hamming_ball_volume(n, t, q), (n, t, q)

        # file formats round-trip byte-identically
        for name in ("or", "identity", "hamming_weight", "constant"):
            for q in (2, 3, 4, 5, 7):
                for k in (1, 2, 3, 4):
                    text = serialize_function_file(builtin_function(name, q, k))
                    assert serialize_function_file(parse_function_file(text)) == text
        for scheme in (
            rs_systematic(7, 3, 2).scheme,
            bch_systematic(4, 1).scheme,
            or_scheme(2, 3, 1),
            or_scheme(4, 2, 2),
        ):
            text = serialize_scheme_file(scheme)
            assert serialize_scheme_file(parse_scheme_file(text)) == text
        return 120.0

    _report(9, "translation invariance, critical pairs, counts, round-trips", checks)
