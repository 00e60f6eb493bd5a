#!/usr/bin/env python3
"""Run one fcckit benchmark workload and print its metrics as JSON.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload decode_channel --seed 1 --seconds 20 --trace 0

Workloads: decode_channel, certify_codes, search_grid.  The benchmark
imports fcckit from ``src/`` beside this directory and calls only the
functions fcckit exports; it runs in this single process with one caller.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
and the spans are written to ``perfbench/out/``.  Exit status: 0 when every
output checked out, 1 when a check failed, 2 when the benchmark could not
run (for example, no fcckit sources beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def import_fcckit():
    """fcckit from this checkout's sources, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "fcckit", "__init__.py")):
        raise SystemExit(f"error: no fcckit sources under {SRC}")
    sys.path.insert(0, SRC)
    import fcckit

    if os.path.dirname(os.path.dirname(os.path.abspath(fcckit.__file__))) != SRC:
        raise SystemExit(f"error: fcckit was imported from {fcckit.__file__}, not {SRC}")
    return fcckit


WORKLOADS = ("decode_channel", "certify_codes", "search_grid")


def load_workload(name: str, size: str = "full"):
    import_fcckit()
    import certify_codes
    import decode_channel
    import search_grid

    modules = {"decode_channel": decode_channel, "certify_codes": certify_codes,
               "search_grid": search_grid}
    return modules[name].workload(size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workload = load_workload(args.workload)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    import harness
    import layers

    tracer = harness.Tracer(enabled=bool(args.trace))
    rec, correct = harness.run(workload, args.seed, args.seconds, tracer)
    if args.trace:
        values = layers.per_layer(tracer, rec, args.seed)
        metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": rec.rounds, "spans": tracer.spans}, fh)
    else:
        metrics = harness.end_to_end(rec)
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
