#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs.

Runs ``perfbench/run.py`` once in each checkout per seed, the base first
on odd pairs and the change first on even ones, so a drift of the host
falls on both sides alike.  For every end-to-end metric that the base's
``BENCHMARK.json`` declares it prints:

* each side's median and quartiles over the pairs, ``median [q1, q3]``;
* how many pairs the change wins (is strictly better in);
* whether the gain rule holds: the change wins at least nine pairs in
  ten, and its median is better than the base's by more than the base's
  quartile spread (q3 - q1);
* the bound check: the change's median is no worse than the base's by
  more than the metric's bound, a fraction of the base's median.

It also prints each side's share of failed operations, its median
number of operations attempted per run and its runs that exited
non-zero.  The attempted count tells a metric that moved with the
number of operations a run fits (the benchmark keeps every result until
its run ends, so memory grows with it) from one the change moved
itself.  Exit status: 0 when every run succeeded, the change fails no
larger share of operations and every bound holds; 1 otherwise.
Only the standard library is used.

Usage:

    python3 scripts/perf_pairs.py BASE CHANGE --workload certify_codes \\
        --seeds 501-510 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``501-510`` or ``1,2,7`` or a mix of both, in the order given."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.strip().partition("-")
        if dash:
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(first))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last stdout line, parsed, plus its exit status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=60 + 20 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    out["returncode"] = proc.returncode
    if proc.returncode != 0:
        print(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Wins, the gain rule and the bound check for one metric over paired runs."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    gap = sign * (cmed - bmed)
    worse_by = -gap / abs(bmed) if bmed else (0.0 if gap >= 0 else math.inf)
    return {
        "base": (bmed, bq1, bq3),
        "change": (cmed, cq1, cq3),
        "wins": wins,
        "pairs": len(base),
        "gain": 10 * wins >= 9 * len(base) and gap > bq3 - bq1,
        "worse_by": worse_by,
        "bound_ok": worse_by <= bound,
    }


def report(name: str, unit: str, bound: float, r: dict) -> str:
    def side(values):
        med, q1, q3 = values
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    verdict = "ok" if r["bound_ok"] else "FAIL"
    return (
        f"{name:<12} {unit:<4} base {side(r['base']):<28} change {side(r['change']):<28} "
        f"wins {r['wins']}/{r['pairs']}  gain {'yes' if r['gain'] else 'no':<3}  "
        f"bound {verdict} ({-r['worse_by']:+.1%} against -{bound:.0%})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout the change is measured against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seed list, e.g. 501-510 or 1,4,9")
    parser.add_argument("--seconds", type=float, required=True, help="length of each run")
    args = parser.parse_args(argv)

    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"base": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for label in order:
            checkout = args.base if label == "base" else args.change
            sides[label].append(run_once(checkout, args.workload, seed, args.seconds))

    print(f"{args.workload}: {len(args.seeds)} pairs, seeds {args.seeds}, "
          f"{args.seconds:g} s per run")
    ok = True
    shares = {}
    for label, runs in sides.items():
        attempted = sum(run.get("attempted", 0) for run in runs)
        failed = sum(run.get("failed", 0) for run in runs)
        bad = sum(1 for run in runs if run["returncode"] != 0 or "metrics" not in run)
        shares[label] = failed / attempted if attempted else 0.0
        per_run = statistics.median(run.get("attempted", 0) for run in runs)
        print(f"{label:<6} failed operations {failed}/{attempted} ({shares[label]:.2%}), "
              f"median attempted {per_run:g}, runs not ok {bad}/{len(runs)}")
        ok = ok and bad == 0
    if not ok:
        return 1
    if shares["change"] > shares["base"]:
        print("FAIL: the change fails a larger share of operations")
        ok = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in sides["base"]]
        change = [run["metrics"][name]["value"] for run in sides["change"]]
        r = compare(base, change, metric["better"], metric["bound"])
        print(report(name, metric["unit"], metric["bound"], r))
        ok = ok and r["bound_ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
