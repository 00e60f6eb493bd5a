"""Per-layer metrics of a traced run, read from its spans.

Every traced run reports every metric in ``PER_LAYER``; a layer that the
workload never calls reads 0.  Conventions:

* ``*_ms`` / ``*_us`` of calls in the timed phase: median per call;
* ``*_s`` of set-up work (``fcc.codebook_fill_s``) and the ``*_ms`` of
  ``constructions`` and ``formats``: total per set-up, median over the
  set-up repetitions;
* ``fcc.verify_s``, ``codes.min_distance_s`` and every count: per round,
  so they do not depend on how many rounds a run had time for;
* ``*_per_s``: total work over total time in those calls.

``gf.*`` time ``Field.add`` and ``Field.mul`` directly on a seeded operand
stream over the fields the workloads use: prime q=17, 2^m q=16 and odd p^m
q=9.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import RunRecord, Tracer, span_ms

from fcckit import Field

PER_LAYER = (
    ("gf.add_ns.prime", "ns", "lower"),
    ("gf.add_ns.char2", "ns", "lower"),
    ("gf.add_ns.odd_pm", "ns", "lower"),
    ("gf.mul_ns.prime", "ns", "lower"),
    ("gf.mul_ns.char2", "ns", "lower"),
    ("gf.mul_ns.odd_pm", "ns", "lower"),
    ("fcc.codebook_fill_s", "s", "lower"),
    ("fcc.decode_ms.cached", "ms", "lower"),
    ("fcc.decode_ms.uncached", "ms", "lower"),
    ("fcc.decode_calls", "count", "lower"),
    ("fcc.encode_us", "us", "lower"),
    ("channel.inject_us", "us", "lower"),
    ("fcc.verify_s", "s", "lower"),
    ("fcc.verify_pairs", "count", "lower"),
    ("fcc.verify_pairs_per_s", "1/s", "higher"),
    ("fcc.critical_pair_ms", "ms", "lower"),
    ("codes.min_distance_s", "s", "lower"),
    ("codes.codewords", "count", "lower"),
    ("codes.codewords_per_s", "1/s", "higher"),
    ("constructions.rs_ms", "ms", "lower"),
    ("constructions.bch_ms", "ms", "lower"),
    ("constructions.or_ms", "ms", "lower"),
    ("bounds.report_ms", "ms", "lower"),
    ("formats.parse_ms", "ms", "lower"),
    ("formats.serialize_ms", "ms", "lower"),
    ("search.exact_redundancy_ms", "ms", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s.q2", "1/s", "higher"),
    ("search.nodes_per_s.qgt2", "1/s", "higher"),
    ("search.infeasible_r", "count", "lower"),
    ("cli.grid_row_ms", "ms", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)

GF_FIELDS = (("prime", 17), ("char2", 16), ("odd_pm", 9))
GF_STREAM = 20000
GF_REPEATS = 5


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _setup_total_ms(tracer: Tracer, name: str) -> float:
    per_rep: dict[str, float] = {}
    for s in tracer.named(name, "setup:"):
        per_rep[s["request"]] = per_rep.get(s["request"], 0.0) + span_ms(s)
    return _median(list(per_rep.values()))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def gf_ns(seed: int) -> dict[str, float]:
    """ns per Field.add / Field.mul call, median of a few passes."""
    out = {}
    rng = random.Random(seed)
    for family, q in GF_FIELDS:
        field = Field(q)
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(GF_STREAM)]
        for op_name, fn in (("add", field.add), ("mul", field.mul)):
            fn(1, 1)  # mul builds its log tables on first use
            samples = []
            for _ in range(GF_REPEATS):
                start = time.perf_counter_ns()
                for a, b in pairs:
                    fn(a, b)
                samples.append((time.perf_counter_ns() - start) / GF_STREAM)
            out[f"gf.{op_name}_ns.{family}"] = statistics.median(samples)
    return out


def per_layer(tracer: Tracer, rec: RunRecord, seed: int) -> dict[str, float]:
    rounds = rec.rounds
    ops = "op:"
    m: dict[str, float] = gf_ns(seed)

    m["fcc.codebook_fill_s"] = _setup_total_ms(tracer, "fcc.codebook_fill") / 1000.0
    decodes = tracer.named("fcc.decode", ops)
    m["fcc.decode_ms.cached"] = _median([span_ms(s) for s in decodes if s["cached"]])
    m["fcc.decode_ms.uncached"] = _median([span_ms(s) for s in decodes if not s["cached"]])
    m["fcc.decode_calls"] = len(decodes) / rounds
    m["fcc.encode_us"] = _median([span_ms(s) * 1000 for s in tracer.named("fcc.encode", ops)])
    m["channel.inject_us"] = _median(
        [span_ms(s) * 1000 for s in tracer.named("channel.inject", ops)])

    verifies = tracer.named("fcc.verify", ops)
    verify_s = sum(span_ms(s) for s in verifies) / 1000.0
    pairs = sum(s["pairs"] for s in verifies)
    m["fcc.verify_s"] = verify_s / rounds
    m["fcc.verify_pairs"] = pairs / rounds
    m["fcc.verify_pairs_per_s"] = _ratio(pairs, verify_s)
    m["fcc.critical_pair_ms"] = _median(
        [span_ms(s) for s in tracer.named("fcc.critical_pair", ops)])

    distances = tracer.named("codes.min_distance", ops)
    distance_s = sum(span_ms(s) for s in distances) / 1000.0
    codewords = sum(s["codewords"] for s in distances)
    m["codes.min_distance_s"] = distance_s / rounds
    m["codes.codewords"] = codewords / rounds
    m["codes.codewords_per_s"] = _ratio(codewords, distance_s)

    for family in ("rs", "bch", "or"):
        m[f"constructions.{family}_ms"] = _setup_total_ms(tracer, f"constructions.{family}")
    m["bounds.report_ms"] = _median([span_ms(s) for s in tracer.named("bounds.report", ops)])
    m["formats.parse_ms"] = _setup_total_ms(tracer, "formats.parse")
    m["formats.serialize_ms"] = _setup_total_ms(tracer, "formats.serialize")

    # A grid row's search time is the row's own seconds column, which
    # run_experiment_grid measures around its exact_redundancy call.
    rows = tracer.named("cli.grid_row", ops)
    searches = [(s["q"], s["nodes"], span_ms(s) / 1000.0, s["infeasible"])
                for s in tracer.named("search.exact_redundancy", ops)]
    searches += [(s["q"], s["nodes"], s["search_s"], s["infeasible"]) for s in rows]
    m["search.exact_redundancy_ms"] = _median([sec * 1000 for _, _, sec, _ in searches])
    m["search.nodes"] = sum(n for _, n, _, _ in searches) / rounds
    for key, pick in (("q2", lambda q: q == 2), ("qgt2", lambda q: q > 2)):
        sel = [(n, sec) for q, n, sec, _ in searches if pick(q)]
        m[f"search.nodes_per_s.{key}"] = _ratio(sum(n for n, _ in sel), sum(s for _, s in sel))
    m["search.infeasible_r"] = sum(x for _, _, _, x in searches) / rounds
    m["cli.grid_row_ms"] = _median([span_ms(s) for s in rows])

    m["trace.ops_per_s"] = len(rec.latencies_s) / rec.timed_s
    return m
