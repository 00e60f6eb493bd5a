#!/usr/bin/env python3
"""Quick self-check of the benchmark: every workload at a tiny size, then
every correctness check fed a corrupted result.

Usage, from the root of the repository (takes a few seconds):

    python3 perfbench/selfcheck.py

For each workload it runs one round of tiny cells with tracing on and
requires that every output checks out, that no operation fails and that
the traced run yields every per-layer metric ``BENCHMARK.json`` names.  It
then takes real results from those runs, corrupts one field at a time, and
requires the matching check to reject each one.  Exit status 0 means all
of that held.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from run import HERE, WORKLOADS, import_fcckit, load_workload

import harness


def _replace(obj, **changes):
    return dataclasses.replace(obj, **changes)


def _other(x: int) -> int:
    """A symbol other than x that exists in every field."""
    return 1 if x == 0 else 0


def _decode_cases():
    def flip_extra(result):
        cw, y, out = result
        pos = next(i for i, (a, b) in enumerate(zip(cw, y)) if a == b)
        return cw, y[:pos] + (_other(y[pos]),) + y[pos + 1:], out

    return [
        ("decode", None, lambda r: (r[0], r[1], _replace(r[2], label=r[2].label + 1)), "label"),
        ("decode", None, lambda r: (r[0], r[1], _replace(r[2], distance=r[2].distance + 1)),
         "distance"),
        ("decode", None, lambda r: (r[0], r[1], _replace(r[2], within_radius=False)), "radius"),
        ("decode", None, flip_extra, "received"),
        ("decode", None, lambda r: ((_other(r[0][0]),) + r[0][1:], r[1], r[2]), "systematic"),
    ]


def _certify_cases():
    def equal_label_pair(res):
        u, v = res.violating_pair
        return _replace(res, violating_pair=(u, u))

    def far_pair(pair):
        u, v = pair
        i = next(i for i, (a, b) in enumerate(zip(u, v)) if a == b)
        return u, v[:i] + (_other(v[i]),) + v[i + 1:]

    return [
        ("verify", lambda res: res.ok, lambda res: _replace(res, pairs_checked=res.pairs_checked + 1),
         "pairs"),
        ("verify", lambda res: res.ok, lambda res: _replace(res, ok=False), "verdict"),
        ("verify", lambda res: not res.ok, lambda res: _replace(res, ok=True), "verdict"),
        ("verify", lambda res: not res.ok, equal_label_pair, "violation-labels"),
        ("verify", lambda res: not res.ok, lambda res: _replace(res, distance=res.distance + 1),
         "violation-distance"),
        ("min_distance", "rs(", lambda d: d + 1, "rs-mds"),
        ("min_distance", "bch(2,4,1)", lambda d: d + 1, "bch-hamming"),
        ("min_distance", "bch(", lambda d: 2, "bch-distance"),
        ("critical_pair", None, lambda pair: None, "critical"),
        ("critical_pair", None, lambda pair: (pair[0], pair[0]), "critical"),
        ("critical_pair", None, far_pair, "critical"),
        ("bounds", None, lambda rep: _replace(rep, lower=rep.lower + 1), "bounds-lower"),
        ("bounds", None, lambda rep: _replace(rep, sphere_packing_r=rep.sphere_packing_r + 1),
         "bounds-sphere"),
        ("bounds", None, lambda rep: _replace(rep, bch_constructive=2 * rep.t - 1), "bounds-bch"),
    ]


def _search_cases():
    # With every parity equal, a critical pair (distance 1, labels differ,
    # present in every non-constant function) violates the condition.
    def flat_witness(res):
        return _replace(res, witness=((0,) * res.r,) * len(res.witness))

    return [
        ("grid_row", "2,2,1,identity", lambda row: _replace(row, exact_r=1), "lower-bound"),
        ("grid_row", "3,1,1,identity", lambda row: _replace(row, exact_r=3), "mds-equality"),
        ("grid_row", "2,2,1,constant", lambda row: _replace(row, exact_r=1), "constant"),
        ("grid_row", "2,2,1,identity", lambda row: _replace(row, exact_r=8), "binary-upper"),
        ("grid_row", "2,2,1,identity", lambda row: _replace(row, nodes=row.nodes + 1),
         "row-vs-search"),
        ("grid_row", "2,2,1,identity", lambda row: _replace(row, lower_2t=0), "row-lower"),
        ("grid_row", "2,2,1,identity",
         lambda row: _replace(row, sphere_packing_r=row.sphere_packing_r + 1), "row-sphere"),
        ("grid_row", "2,2,1,identity", lambda row: _replace(row, mds_equality=True), "row-mds"),
        ("census", None, lambda res: _replace(res, r=0), "lower-bound"),
        ("census", None, flat_witness, "witness"),
        ("census", None, lambda res: _replace(res, witness=res.witness[1:]), "witness-shape"),
        ("census", None, lambda res: _replace(res, infeasible=res.infeasible + (res.r,)),
         "infeasible"),
    ]


CASES = {"decode_channel": _decode_cases, "certify_codes": _certify_cases,
         "search_grid": _search_cases}


def _matches(op, selector, result) -> bool:
    if selector is None:
        return True
    if isinstance(selector, str):
        return op.label.startswith(selector)
    return selector(result)


def _expect_rejected(op, corrupted, tag: str) -> None:
    try:
        op.check(corrupted)
    except harness.CheckError as exc:
        if exc.tag != tag:
            raise AssertionError(f"{op.label}: corruption meant for [{tag}] tripped [{exc.tag}]")
        return
    raise AssertionError(f"{op.label}: the [{tag}] check accepted a corrupted result")


def main() -> int:
    import_fcckit()
    import layers

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = {name for name, _, _ in layers.PER_LAYER}
    if declared != produced:
        print(f"FAIL per-layer metrics differ from BENCHMARK.json: {declared ^ produced}")
        return 1
    failures = 0
    for name in WORKLOADS:
        workload = load_workload(name, "tiny")
        tracer = harness.Tracer(enabled=True)
        rec, correct = harness.run(workload, seed=1, seconds=0, tracer=tracer)
        values = layers.per_layer(tracer, rec, seed=1)
        ok = correct and rec.failed == 0 and rec.attempted > 0 and set(values) == produced
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {rec.attempted} operations, "
              f"{rec.failed} failed, outputs {'correct' if correct else 'WRONG'}")
        failures += not ok
        for kind, selector, mutate, tag in CASES[name]():
            found = [(op, res) for op, res in rec.results
                     if op.kind == kind and _matches(op, selector, res)]
            if not found:
                print(f"FAIL {name}: no {kind} result to corrupt for [{tag}]")
                failures += 1
                continue
            op, res = found[0]
            try:
                _expect_rejected(op, mutate(res), tag)
                print(f"ok   {name}: [{tag}] rejects a corrupted {kind} result ({op.label})")
            except AssertionError as exc:
                print(f"FAIL {name}: {exc}")
                failures += 1
    print("self-check passed" if not failures else f"self-check: {failures} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
