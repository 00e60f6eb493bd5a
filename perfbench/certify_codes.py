"""certify_codes: certify the paper's constructions.

Each operation is one of four calls: ``verify_fcc`` of an RS, BCH or OR
scheme against a built-in function (passing ones scan every pair, failing
ones stop at the first violation), ``min_distance`` of an RS or BCH
generator (prime, 2^m and odd p^m fields, up to rs(11,5,3)),
``find_critical_pair`` of a seeded two-valued function, or a
``bounds.report`` row for a binary cell with k in the low hundreds, which
builds a BCH code.

A round is 26 operations in three cost groups: ten cheap ones (under
about 20 ms), five critical-pair scans (about 40 ms), and eleven heavy
ones (over about 60 ms).  The median is therefore a middle critical-pair
scan, with a wide gap on either side.  The three min_distance runs of
rs(11,5,3) are the heaviest operations; over at least six rounds they
give at least 18 samples, so the eleventh-largest sample, which is the
tail, falls inside that group rather than at its lower edge.
"""

from __future__ import annotations

import random

from harness import Op, Tracer, Workload, expect
import oracle
import roundtrip

from fcckit import (
    FunctionTable,
    bch_systematic,
    builtin_function,
    find_critical_pair,
    min_distance,
    or_scheme,
    rs_systematic,
    verify_fcc,
)
from fcckit import bounds

# Schemes: name -> (family, q, k, t).
FULL_SCHEMES = {
    "rs7": ("rs", 7, 3, 2),
    "rs8": ("rs", 8, 3, 2),
    "rs9": ("rs", 9, 3, 2),
    "bch8": ("bch", 2, 8, 2),
    "or4": ("or", 4, 5, 2),
    "or3": ("or", 3, 6, 2),
}
# Verifications: (scheme, function spec).  The two against an OR scheme
# with a finer function than `or` must fail.
FULL_VERIFY = (
    ("rs7", "or"), ("rs7", "threshold:2"), ("rs8", "identity"), ("rs8", "hamming_weight"),
    ("rs9", "hamming_weight"), ("rs9", "identity"), ("bch8", "or"), ("or4", "or"),
    ("or4", "identity"), ("or3", "hamming_weight"),
)
# min_distance cells: (family, q, k, t, repetitions per round).
FULL_DISTANCE = (
    ("bch", 2, 4, 1, 1), ("bch", 2, 10, 2, 1), ("rs", 7, 4, 1, 1), ("rs", 8, 4, 2, 1),
    ("rs", 16, 4, 2, 1), ("rs", 9, 4, 2, 1), ("rs", 11, 5, 3, 3),
)
# Critical-pair functions: (q, k, theta, repetitions); labels are 0 below
# weight theta and seeded bits from there up.
FULL_CRITICAL = ((3, 8, 6, 5),)
# bounds.report rows: (k window start, t); k is drawn from [start, start + 8).
FULL_BOUNDS = ((150, 2), (180, 3))

TINY_SCHEMES = {"rs7": ("rs", 7, 2, 2), "bch4": ("bch", 2, 4, 1), "or2": ("or", 2, 3, 1)}
TINY_VERIFY = (("rs7", "identity"), ("bch4", "threshold:2"), ("or2", "or"), ("or2", "identity"))
TINY_DISTANCE = (("bch", 2, 4, 1, 1), ("rs", 7, 3, 2, 1))
TINY_CRITICAL = ((2, 6, 3, 1),)
TINY_BOUNDS = ((20, 2),)


class Config:
    def __init__(self, schemes, verify, distance, critical, bounds_rows):
        self.schemes = schemes
        self.verify = verify
        self.distance = distance
        self.critical = critical
        self.bounds_rows = bounds_rows


def _construct(tracer: Tracer, family: str, q: int, k: int, t: int):
    with tracer.span(f"constructions.{family}", q=q, k=k, t=t):
        if family == "rs":
            return rs_systematic(q, k, t).scheme
        if family == "bch":
            return bch_systematic(k, t).scheme
        return or_scheme(q, k, t)


class State:
    pass


def inputs(cfg: Config, rng: random.Random) -> dict:
    """Labels of the critical-pair functions and the k of each bounds row."""
    critical = []
    for q, k, theta, reps in cfg.critical:
        labels = [0 if oracle.weight(u) < theta else rng.randint(0, 1)
                  for u in oracle.messages(q, k)]
        critical.append((q, k, labels, reps))
    bounds_rows = [(start + rng.randrange(8), t) for start, t in cfg.bounds_rows]
    return {"cfg": cfg, "critical": critical, "bounds_rows": bounds_rows}


def setup(inp: dict, tracer: Tracer) -> State:
    """Build every encoder and save and reload it as the CLI does, build the
    function tables and reload the seeded ones from function files."""
    cfg = inp["cfg"]
    st = State()
    st.schemes = {}
    for name, (family, q, k, t) in cfg.schemes.items():
        st.schemes[name] = (roundtrip.scheme(tracer, _construct(tracer, family, q, k, t)), t)
    st.functions = {}
    for name, spec in cfg.verify:
        scheme, _t = st.schemes[name]
        key = (scheme.q, scheme.k, spec)
        if key not in st.functions:
            fname, _, aux = spec.partition(":")
            f = builtin_function(fname, scheme.q, scheme.k, int(aux) if aux else None)
            st.functions[key] = roundtrip.function(tracer, f)
    st.generators = []
    for family, q, k, t, reps in cfg.distance:
        scheme = roundtrip.scheme(tracer, _construct(tracer, family, q, k, t))
        st.generators.append((family, q, k, t, scheme.generator, reps))
    st.critical = []
    for q, k, labels, reps in inp["critical"]:
        f = roundtrip.function(tracer, FunctionTable(q, k, tuple(labels)))
        st.critical.append((f, labels, reps))
    st.bounds_rows = inp["bounds_rows"]
    st.cfg = cfg
    return st


def _or_parity(u, t: int) -> tuple[int, ...]:
    """The OR scheme's parity from its definition: 0^2t for the zero message, 1^2t otherwise."""
    return (int(any(u)),) * (2 * t)


def _verify_op(scheme, t: int, f: FunctionTable, spec: str, name: str) -> Op:
    q, k = scheme.q, scheme.k
    labels = oracle.label_table(spec, q, k)
    if name.startswith("or"):
        parities = [_or_parity(u, t) for u in oracle.messages(q, k)]
        must_pass = oracle.first_violation(q, k, t, labels, parities) is None
    else:
        must_pass = True  # RS has d = 2t+1 and BCH d >= 2t+1, so every function passes

    def run(tracer: Tracer):
        with tracer.span("fcc.verify", scheme=name, function=spec) as sp:
            res = verify_fcc(scheme, f, t)
            sp.set(pairs=res.pairs_checked)
        return res

    def check(res) -> None:
        where = f"verify {name} {spec}"
        expect(res.ok == must_pass, "verdict", f"{where}: ok = {res.ok}, want {must_pass}")
        if res.ok:
            want = oracle.pairs_with_different_labels(labels)
            expect(res.pairs_checked == want, "pairs",
                   f"{where}: {res.pairs_checked} pairs checked, want {want}")
            return
        u, v = res.violating_pair
        expect(oracle.label(spec, u, q) != oracle.label(spec, v, q), "violation-labels",
               f"{where}: reported pair {u}, {v} has equal labels")
        d = oracle.distance(tuple(u) + _or_parity(u, t), tuple(v) + _or_parity(v, t))
        expect(d == res.distance, "violation-distance",
               f"{where}: reported distance {res.distance}, recomputed {d}")
        expect(d < 2 * t + 1, "violation-distance", f"{where}: distance {d} is no violation")

    return Op("verify", f"{name}:{spec}", run, check)


def _distance_op(family: str, q: int, k: int, t: int, g) -> Op:
    def run(tracer: Tracer):
        with tracer.span("codes.min_distance", codewords=q**k - 1, q=q):
            return min_distance(g)

    def check(d) -> None:
        where = f"min_distance {family}({q},{k},{t})"
        if family == "rs":
            expect(d == g.n - k + 1, "rs-mds", f"{where}: d = {d}, n-k+1 = {g.n - k + 1}")
        else:
            expect(d >= 2 * t + 1, "bch-distance", f"{where}: d = {d} < 2t+1")
            if (g.n, k) == (7, 4):
                expect(d == 3, "bch-hamming", f"{where}: [7,4] gives d = {d}")

    return Op("min_distance", f"{family}({q},{k},{t})", run, check)


def _critical_op(f: FunctionTable, labels: list[int]) -> Op:
    q, k = f.q, f.k

    def run(tracer: Tracer):
        with tracer.span("fcc.critical_pair", q=q, k=k):
            return find_critical_pair(f)

    def check(pair) -> None:
        where = f"critical pair q={q} k={k}"
        expect(pair is not None, "critical", f"{where}: none found for a non-constant function")
        u, v = pair
        expect(oracle.distance(u, v) == 1, "critical", f"{where}: {u}, {v} not at distance 1")
        expect(labels[oracle.rank(u, q)] != labels[oracle.rank(v, q)], "critical",
               f"{where}: {u}, {v} have equal labels")

    return Op("critical_pair", f"q={q},k={k}", run, check)


def _bounds_op(k: int, t: int) -> Op:
    def run(tracer: Tracer):
        with tracer.span("bounds.report", k=k, t=t):
            return bounds.report(2, k, t)

    def check(rep) -> None:
        where = f"bounds.report(2,{k},{t})"
        expect(rep.lower == 2 * t, "bounds-lower", f"{where}: lower {rep.lower}")
        want = oracle.sphere_packing_r(2, k, t)
        expect(rep.sphere_packing_r == want, "bounds-sphere",
               f"{where}: sphere_packing_r {rep.sphere_packing_r}, want {want}")
        expect(rep.bch_constructive is not None and rep.bch_constructive >= 2 * t,
               "bounds-bch", f"{where}: BCH redundancy {rep.bch_constructive} below 2t")

    return Op("bounds", f"({k},{t})", run, check)


def plan(st: State, rng: random.Random) -> list[Op]:
    """The same operations, in one seeded order, make up every round."""
    ops = []
    for name, spec in st.cfg.verify:
        scheme, t = st.schemes[name]
        ops.append(_verify_op(scheme, t, st.functions[(scheme.q, scheme.k, spec)], spec, name))
    for family, q, k, t, g, reps in st.generators:
        ops += [_distance_op(family, q, k, t, g)] * reps
    for f, labels, reps in st.critical:
        ops += [_critical_op(f, labels)] * reps
    ops += [_bounds_op(k, t) for k, t in st.bounds_rows]
    rng.shuffle(ops)
    return ops


def workload(size: str = "full") -> Workload:
    if size == "full":
        cfg = Config(FULL_SCHEMES, FULL_VERIFY, FULL_DISTANCE, FULL_CRITICAL, FULL_BOUNDS)
    else:
        cfg = Config(TINY_SCHEMES, TINY_VERIFY, TINY_DISTANCE, TINY_CRITICAL, TINY_BOUNDS)
    return Workload(
        inputs=lambda rng: inputs(cfg, rng),
        setup=setup,
        plan=plan,
        round_ops=lambda ops, rng: ops,
        setup_reps=15 if size == "full" else 1,
        min_rounds=6 if size == "full" else 1,
    )
