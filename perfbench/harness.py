"""Timing loop, in-memory tracing and result assembly shared by the workloads.

A workload supplies three things: a set-up that builds the once-per-session
state its operations depend on, a list of operations that makes up one
round, and a check for each operation's result.  The harness times the
set-up several times and keeps the last state, then runs whole rounds in a
closed loop (one caller; the next operation starts when the previous one
returns) until the run length has passed and at least ``min_rounds`` rounds
are done.  Results are checked after the timed phase, so check cost never
enters a latency.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable


class CheckError(Exception):
    """An output of fcckit disagrees with the benchmark's own computation."""

    def __init__(self, tag: str, message: str):
        super().__init__(f"[{tag}] {message}")
        self.tag = tag


def expect(condition: bool, tag: str, message: str) -> None:
    if not condition:
        raise CheckError(tag, message)


# -- tracing -----------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": end,
            "parent": self.parent,
            "request": tr.request,
            **self.attrs,
        }
        return False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


class Tracer:
    """Spans around the benchmark's calls into fcckit's layers, kept in memory.

    A span records its name, start and end, the span that caused it and the
    request (set-up repetition or operation) it belongs to.  A disabled
    tracer hands out one shared no-op span, so untraced runs record nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.request = ""
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def named(self, name: str, phase: str | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and (phase is None or s["request"].startswith(phase))
        ]


def span_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


# -- workload protocol ---------------------------------------------------------


@dataclass
class Op:
    """One operation of a round: ``run`` calls fcckit, ``check`` judges it."""

    kind: str
    label: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    """``inputs`` draws the seeded inputs, untimed; ``setup`` is timed;
    ``plan`` turns its state into operations before the timed phase;
    ``round_ops`` hands out one round; ``after_run`` may make checks that
    need the whole run."""

    inputs: Callable[[random.Random], Any]
    setup: Callable[[Any, Tracer], Any]
    plan: Callable[[Any, random.Random], Any]
    round_ops: Callable[[Any, random.Random], list[Op]]
    setup_reps: int
    min_rounds: int
    after_run: Callable[[Any, "RunRecord", Tracer], None] | None = None


@dataclass
class RunRecord:
    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    results: list[tuple[Op, Any]] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0


# -- statistics ------------------------------------------------------------------


def tail_latency(sorted_values: list[float]) -> float:
    """Value at the highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample: a percentile any higher would
    leave fewer than ten samples above it.
    """
    if len(sorted_values) < 40:
        raise ValueError(f"a tail needs at least 40 samples, got {len(sorted_values)}")
    return sorted_values[-11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run -----------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> tuple[RunRecord, bool]:
    """Set up, run whole rounds for ``seconds``, then check every result."""
    rec = RunRecord()
    inputs = workload.inputs(random.Random(seed))
    state = None
    for rep in range(workload.setup_reps):
        state = None  # drop the previous repetition's state before timing the next
        gc.collect()
        tracer.request = f"setup:{rep}"
        start = time.perf_counter()
        with tracer.span("setup"):
            state = workload.setup(inputs, tracer)
        rec.setup_s.append(time.perf_counter() - start)

    rng = random.Random(seed * 7919 + 1)  # a stream apart from the inputs' stream
    plan = workload.plan(state, rng)
    gc.collect()
    begin = time.perf_counter()
    while rec.rounds < workload.min_rounds or time.perf_counter() - begin < seconds:
        for op in workload.round_ops(plan, rng):
            tracer.request = f"op:{rec.attempted}"
            rec.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.span("op", kind=op.kind, label=op.label):
                    result = op.run(tracer)
            except Exception:  # an operation that raises is a failed operation
                rec.failed += 1
                print(f"operation {op.label} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            rec.latencies_s.append(time.perf_counter() - start)
            rec.results.append((op, result))
        rec.rounds += 1
    rec.timed_s = time.perf_counter() - begin

    correct = True
    tracer.request = "check"
    try:
        for op, result in rec.results:
            op.check(result)
        if workload.after_run is not None:
            workload.after_run(plan, rec, tracer)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    return rec, correct


def end_to_end(rec: RunRecord) -> dict[str, tuple[float, str]]:
    lat_ms = sorted(x * 1000.0 for x in rec.latencies_s)
    return {
        "setup_s": (statistics.median(rec.setup_s), "s"),
        "ops_per_s": (len(rec.latencies_s) / rec.timed_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_latency(lat_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }

