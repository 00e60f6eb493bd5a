"""Command-line surface tying the toolkit together.

Subcommands: construct (rs|bch|or), encode, decode, verify, search,
bounds, simulate, grid.  Exit codes: 0 success; 1 verification,
decoding, or simulation failure; 2 malformed input; 3 budget exceeded.
A malformed file's error names its line; a malformed argument's
(``ArgumentError``) names none.
The FCC_BUDGET environment variable overrides the default budgets and
--budget overrides both.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds as bounds_mod
from . import defaults
from .channel import inject
from .constructions import bch_systematic, or_scheme, rs_systematic
from .errors import (
    ArgumentError,
    BeyondRadius,
    BoundUndefined,
    BudgetExceeded,
    FccError,
    IoError,
)
from .fcc import (
    FccScheme,
    FunctionTable,
    builtin_function,
    fcc_decode,
    fcc_encode,
    verify_fcc,
)
from .formats import parse_function_file, parse_scheme_file, serialize_scheme_file
from .search import exact_redundancy
from .vectors import check_radius, unrank_message

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_FORMAT = 2
EXIT_BUDGET = 3


# -- plumbing ------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _resolve_budget(flag_value: int | None, fallback: int) -> int:
    budget = flag_value
    env = os.environ.get("FCC_BUDGET")
    if budget is None and env:
        try:
            budget = int(env)
        except ValueError as exc:
            raise ArgumentError(f"FCC_BUDGET is not an integer: {env!r}") from exc
    if budget is not None and budget < 0:
        raise ArgumentError(f"budget must be non-negative, got {budget}")
    return fallback if budget is None else budget


def parse_function_spec(spec: str, q: int, k: int) -> FunctionTable:
    """Builtin function reference ``name`` or ``name:aux`` (aux comma-separated)."""
    name, _, aux_text = spec.partition(":")
    aux = None
    if aux_text:
        try:
            aux = tuple(int(tok) for tok in aux_text.split(","))
        except ValueError:
            raise ArgumentError(
                f"function spec {spec!r}: aux must be comma-separated integers"
            ) from None
    return builtin_function(name, q, k, aux)


def _load_function(args: argparse.Namespace) -> FunctionTable:
    """--function is a FunctionFile path or a builtin spec (needs --q/--k)."""
    ref = args.function
    if os.path.exists(ref) or os.sep in ref:
        return parse_function_file(_read_text(ref))
    if args.q is None or args.k is None:
        raise ArgumentError(
            f"builtin function {ref!r} needs --q and --k (or pass a file path)"
        )
    return parse_function_spec(ref, args.q, args.k)


def _load_scheme(path: str) -> FccScheme:
    return parse_scheme_file(_read_text(path))


# -- command handlers ----------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family in ("rs", "or") and args.q is None:
        raise ArgumentError(f"construct {args.family} needs --q")
    if args.family == "rs":
        report = rs_systematic(args.q, args.k, args.t)
        scheme = report.scheme
        line = (
            f"rs_systematic: [{report.n},{report.k},{report.claimed_distance}]_{report.q}"
            f" r={report.r}"
        )
    elif args.family == "bch":
        report = bch_systematic(args.k, args.t)
        scheme = report.scheme
        line = (
            f"bch_systematic: [{report.n},{report.k},>={report.claimed_distance}]_2"
            f" r={report.r}"
        )
    else:
        scheme = or_scheme(args.q, args.k, args.t)
        line = f"or_scheme: q={args.q} k={args.k} r={scheme.r} distance>={2 * args.t + 1}"
    print(line)
    if args.out:
        _write_text(args.out, serialize_scheme_file(scheme))
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.infile)
    cw = fcc_encode(scheme, tuple(args.symbols))
    print(" ".join(str(x) for x in cw))
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.infile)
    f = _load_function(args)
    budget = _resolve_budget(args.budget, defaults.ENUMERATION_BUDGET)
    try:
        outcome = fcc_decode(
            scheme, f, args.t, tuple(args.symbols), strict=args.strict, budget=budget
        )
    except BeyondRadius as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    flag = "true" if outcome.within_radius else "false"
    print(f"label={outcome.label} distance={outcome.distance} within_radius={flag}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.infile)
    f = _load_function(args)
    budget = _resolve_budget(args.budget, defaults.ENUMERATION_BUDGET)
    result = verify_fcc(scheme, f, args.t, budget=budget)
    if result.ok:
        print(f"pass: {result.pairs_checked} pairs checked")
        return EXIT_OK
    u, v = result.violating_pair
    print(
        "fail: messages "
        f"({' '.join(map(str, u))}) and ({' '.join(map(str, v))}) "
        f"at codeword distance {result.distance} < {2 * args.t + 1}"
    )
    return EXIT_FAILURE


def _cmd_search(args: argparse.Namespace) -> int:
    f = _load_function(args)
    budget = _resolve_budget(args.budget, defaults.SEARCH_NODE_BUDGET)
    result = exact_redundancy(f, args.t, budget=budget)
    infeasible = ",".join(str(x) for x in result.infeasible) or "-"
    print(f"r={result.r} nodes={result.nodes} infeasible_r={infeasible}")
    if args.out:
        _write_text(args.out, serialize_scheme_file(result.scheme()))
    return EXIT_OK


def _bound_cells(rep: bounds_mod.BoundReport, annotate: bool) -> list[tuple[str, str]]:
    upper = "undef" if rep.upper_binary is None else f"{rep.upper_binary:.9f}"
    if annotate and rep.upper_binary is not None and rep.upper_is_conjectured:
        upper += " (conjectured)"
    return [
        ("q", str(rep.q)),
        ("k", str(rep.k)),
        ("t", str(rep.t)),
        ("image_size", str(rep.image_size)),
        ("lower_2t", str(rep.lower)),
        ("eq2_upper", upper),
        ("eq2_upper_ceil", "undef" if rep.upper_binary_ceil is None else str(rep.upper_binary_ceil)),
        ("bch_constructive", "-" if rep.bch_constructive is None else str(rep.bch_constructive)),
        ("sphere_packing_r", str(rep.sphere_packing_r)),
        ("mds_equality", "true" if rep.mds_equality else "false"),
    ]


def _cmd_bounds(args: argparse.Namespace) -> int:
    rep = bounds_mod.report(args.q, args.k, args.t, image_size=args.image_size)
    cells = _bound_cells(rep, annotate=not args.csv)
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([key for key, _ in cells])
        writer.writerow([val for _, val in cells])
    else:
        width = max(len(key) for key, _ in cells)
        for key, val in cells:
            print(f"{key.ljust(width)}  {val}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.infile)
    f = _load_function(args)
    check_radius(args.t)
    if args.trials < 0:
        raise ArgumentError(f"--trials must be non-negative, got {args.trials}")
    budget = _resolve_budget(args.budget, defaults.ENUMERATION_BUDGET)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        rank = rng.randrange(scheme.q**scheme.k)
        u = unrank_message(rank, scheme.q, scheme.k)
        weight = args.weight if args.weight is not None else rng.randint(0, args.t)
        y = inject(scheme.field, fcc_encode(scheme, u), weight, seed=rng)
        outcome = fcc_decode(scheme, f, args.t, y, strict=False, budget=budget)
        if outcome.label != f.label(u):
            failures += 1
    print(f"trials={args.trials} successes={args.trials - failures} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


# -- experiment grid -----------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """One experiment sweep: the cross product of all listed cells.

    Every cell computation is deterministic, so identical specs give
    identical rows.
    """

    qs: tuple[int, ...]
    ks: tuple[int, ...]
    ts: tuple[int, ...]
    functions: tuple[str, ...]
    node_budget: int = defaults.SEARCH_NODE_BUDGET


@dataclass(frozen=True, slots=True)
class GridRow:
    """One grid cell; exact_r is None when the search hit its budget."""

    q: int
    k: int
    t: int
    function_name: str
    exact_r: int | None
    lower_2t: int
    eq2_upper: float | None
    sphere_packing_r: int
    mds_equality: bool
    nodes: int
    seconds: float

    def csv_values(self) -> list[str]:
        return [
            str(self.q),
            str(self.k),
            str(self.t),
            self.function_name,
            "budget" if self.exact_r is None else str(self.exact_r),
            str(self.lower_2t),
            "undef" if self.eq2_upper is None else f"{self.eq2_upper:.9f}",
            str(self.sphere_packing_r),
            "true" if self.mds_equality else "false",
            str(self.nodes),
            f"{self.seconds:.3f}",
        ]


GRID_HEADER = [
    "q",
    "k",
    "t",
    "function_name",
    "exact_r",
    "lower_2t",
    "eq2_upper",
    "sphere_packing_r",
    "mds_equality",
    "nodes",
    "seconds",
]


def run_experiment_grid(
    spec: GridSpec, timer: Callable[[], float] | None = time.perf_counter
) -> Iterator[GridRow]:
    """Yield one row per (q, k, t, function) cell in grid-lex order.

    Every t and every (q, k, function) spec is checked here, before the
    first row is made, so a bad cell raises at the call; each function
    table is built once and shared by the cell's t values.  Budget
    overruns in a cell are recorded in the row (exact_r None) and never
    abort the sweep.  All semantic columns are deterministic; pass
    timer=None to zero the seconds column for byte-stable output.
    """
    for t in spec.ts:
        check_radius(t)
    tables = {
        (q, k, fname): parse_function_spec(fname, q, k)
        for q in spec.qs
        for k in spec.ks
        for fname in spec.functions
    }
    return _grid_rows(spec, tables, timer)


def _grid_rows(
    spec: GridSpec,
    tables: dict[tuple[int, int, str], FunctionTable],
    timer: Callable[[], float] | None,
) -> Iterator[GridRow]:
    for q in spec.qs:
        for k in spec.ks:
            for t in spec.ts:
                for fname in spec.functions:
                    f = tables[q, k, fname]
                    start = timer() if timer else 0.0
                    try:
                        result = exact_redundancy(f, t, budget=spec.node_budget)
                        exact_r: int | None = result.r
                        nodes = result.nodes
                    except BudgetExceeded as exc:
                        exact_r = None
                        # a search refused before any work would have
                        # passed the budget: budget + 1, as a cut search reports
                        nodes = exc.details.get("nodes", spec.node_budget + 1)
                    seconds = (timer() - start) if timer else 0.0
                    try:
                        eq2: float | None = bounds_mod.upper_bound_binary(k, t)
                    except BoundUndefined:
                        eq2 = None
                    yield GridRow(
                        q=q,
                        k=k,
                        t=t,
                        function_name=fname,
                        exact_r=exact_r,
                        lower_2t=bounds_mod.lower_bound(f.image_size, t),
                        eq2_upper=eq2,
                        sphere_packing_r=bounds_mod.sphere_packing_min_r(q, k, t),
                        mds_equality=bounds_mod.mds_equality(q, k, t),
                        nodes=nodes,
                        seconds=seconds,
                    )


def grid_to_csv(rows: Iterable[GridRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(GRID_HEADER)
    for row in rows:
        writer.writerow(row.csv_values())


def parse_range_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers with a..b ranges: "2,4..6" -> (2, 4, 5, 6)."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, sep, hi_text = part.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if sep else lo
        except ValueError:
            raise ArgumentError(f"range list {text!r}: {part!r} is not an integer or a..b") from None
        if lo > hi:
            raise ArgumentError(f"range list {text!r}: {part!r} is an empty range")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ArgumentError(f"empty range list: {text!r}")
    return tuple(out)


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = GridSpec(
        qs=parse_range_list(args.q),
        ks=parse_range_list(args.k),
        ts=parse_range_list(args.t),
        functions=tuple(args.functions),
        node_budget=_resolve_budget(args.budget, defaults.SEARCH_NODE_BUDGET),
    )
    timer = None if args.no_timing else time.perf_counter
    # raises on a bad cell before the CSV header is written
    rows = run_experiment_grid(spec, timer=timer)
    if args.out:
        buf = io.StringIO()
        grid_to_csv(rows, buf)
        _write_text(args.out, buf.getvalue())
    else:
        grid_to_csv(rows, sys.stdout)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcckit",
        description="Function-correcting codes: constructions, verification, "
        "decoding, bounds, and exact redundancy search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("construct", _cmd_construct, "build an encoder and optionally save it")
    p.add_argument("family", choices=("rs", "bch", "or"))
    p.add_argument("--q", type=int, help="field order (rs, or)")
    p.add_argument("--k", type=int, required=True, help="message length")
    p.add_argument("--t", type=int, required=True, help="correction capability")
    p.add_argument("--out", help="write the scheme file here")

    p = add("encode", _cmd_encode, "encode a message with a saved scheme")
    p.add_argument("--in", dest="infile", required=True, help="scheme file")
    p.add_argument("symbols", type=int, nargs="+", help="message symbols")

    p = add("decode", _cmd_decode, "recover the function value from a received vector")
    p.add_argument("--in", dest="infile", required=True, help="scheme file")
    p.add_argument("--function", required=True, help="function file or builtin name")
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                   help="fail when no codeword lies within radius t (default on)")
    p.add_argument("symbols", type=int, nargs="+", help="received symbols")

    p = add("verify", _cmd_verify, "check the pairwise distance condition")
    p.add_argument("--in", dest="infile", required=True, help="scheme file")
    p.add_argument("--function", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int)

    p = add("search", _cmd_search, "exact optimal redundancy by backtracking")
    p.add_argument("--function", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="write the witness scheme file here")

    p = add("bounds", _cmd_bounds, "closed-form and sphere-packing bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--image-size", type=int, default=2)
    p.add_argument("--csv", action="store_true", help="emit one CSV row")

    p = add("simulate", _cmd_simulate, "seeded random error trials against a scheme")
    p.add_argument("--in", dest="infile", required=True, help="scheme file")
    p.add_argument("--function", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--weight", type=int, help="fixed error weight (default: random 0..t)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)

    p = add("grid", _cmd_grid, "sweep (q, k, t, f) cells and emit CSV")
    p.add_argument("--q", required=True, help="e.g. 2,3 or 2..5")
    p.add_argument("--k", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--functions", nargs="+", required=True,
                   help="builtin specs, e.g. or identity linear:1,0,1")
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the seconds column for byte-stable output")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
