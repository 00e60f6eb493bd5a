"""search_grid: exact redundancy search over a grid of cells.

Mirrors ``fcckit grid`` and ``scripts/conjecture_grid.py``: each grid
operation is one row of ``cli.run_experiment_grid``.  The sweep covers
q in {2,3,4,5}, k <= 5, t in {1,2} and the built-in functions; beside it,
census operations call ``exact_redundancy`` directly on a seeded sample of
two-valued functions on F_2^4, as ``scripts/redundancy_census.py`` does.

The sweep keeps the cells that finish within the default node budget and
within about a second on the reference machine (``EXCLUDED`` lists the rest
and why).  Weight goes to cells with real search work: identity at q=4 k=2
t=2 (about 0.7 M nodes, the heaviest cell kept) runs eleven times per
round and hamming_weight at q=2 k=5 t=2 (about 0.3 M nodes) six times.
The eleven copies of the heaviest cell in each of at least two rounds hold
the eleventh-largest sample, which is the tail, near the middle of their
22 or more samples rather than at their fast edge.

Most rows take under a few milliseconds and differ from one another, so
near the median each step in rank is a few percent of latency, and one
row that runs slow or one seeded census function moved the median by that
much.  threshold:2 at q=2 k=5 t=2 costs about the median row (0.7 ms) and
runs forty times per round: its copies fill the middle of the sorted
latencies, so the median is a latency of that row.
"""

from __future__ import annotations

import random

from harness import Op, Tracer, Workload, expect
import oracle
import roundtrip

from fcckit import FunctionTable, exact_redundancy
from fcckit.cli import GridSpec, parse_function_spec, run_experiment_grid

FUNCTIONS = ("or", "constant", "identity", "hamming_weight", "threshold:2", "linear")

# Cells left out of the sweep: ones that exceed the default node budget
# (identity from q=3 k=3 t=2 up, linear at q=5 k>=3 t=2 and q=5 k=4) and
# ones that finish but take over a second each (q=4 k=5 t=2 hamming_weight
# and linear, q=5 k=3 t=1 linear, q=5 k=4 identity and hamming_weight at
# t=2, and every q=5 k=5 cell, whose pair table alone has 4.9 M entries).
EXCLUDED = {
    (3, 3, 2, "identity"), (3, 4, 1, "identity"), (3, 4, 2, "identity"),
    (3, 5, 1, "identity"), (3, 5, 2, "identity"), (4, 3, 2, "identity"),
    (4, 4, 2, "identity"), (4, 5, 1, "identity"), (4, 5, 2, "identity"),
    (4, 5, 2, "hamming_weight"), (4, 5, 2, "linear"), (5, 3, 1, "linear"),
    (5, 3, 2, "identity"), (5, 3, 2, "linear"), (5, 4, 1, "identity"),
    (5, 4, 1, "linear"), (5, 4, 2, "identity"), (5, 4, 2, "hamming_weight"),
    (5, 4, 2, "linear"),
} | {(5, 5, t, name.partition(":")[0]) for t in (1, 2) for name in FUNCTIONS}

FULL = dict(
    qs=(2, 3, 4, 5), ks=(1, 2, 3, 4, 5), ts=(1, 2),
    # Copies per round of the cells with real search work and of one
    # median-cost row (see above).
    weighted={(4, 2, 2, "identity"): 11, (2, 5, 2, "hamming_weight"): 6,
              (2, 5, 2, "threshold"): 40},
    census_k=4, census_size=16,  # half of the census at t = 1, half at t = 2
)
TINY = dict(qs=(2, 3), ks=(1, 2), ts=(1, 2), weighted={(2, 2, 2, "identity"): 2},
            census_k=2, census_size=2)


def sweep_cells(cfg: dict) -> list[tuple[int, int, int, str]]:
    return [
        (q, k, t, "linear:" + ",".join(["1"] * k) if name == "linear" else name)
        for q in cfg["qs"] for k in cfg["ks"] for t in cfg["ts"] for name in FUNCTIONS
        if (q, k, t, name.partition(":")[0]) not in EXCLUDED
    ]


class State:
    pass


def inputs(cfg: dict, rng: random.Random) -> dict:
    """The census sample: seeded two-valued functions, none constant."""
    census = []
    size = 2 ** cfg["census_k"]
    for i in range(cfg["census_size"]):
        labels = [0] * size
        while len(set(labels)) < 2:
            labels = [rng.randint(0, 1) for _ in range(size)]
        census.append((1 + i % 2, labels))
    return {"cfg": cfg, "census": census}


def setup(inp: dict, tracer: Tracer) -> State:
    """Build the function table of every cell as the grid does, and save and
    reload it and each census function as a function file."""
    cfg = inp["cfg"]
    st = State()
    st.cfg = cfg
    st.cells = {}
    for q, k, t, spec in sweep_cells(cfg):
        if (q, k, spec) not in st.cells:
            st.cells[(q, k, spec)] = roundtrip.function(tracer, parse_function_spec(spec, q, k))
    st.census = [(t, labels, roundtrip.function(tracer, FunctionTable(2, cfg["census_k"], tuple(labels))))
                 for t, labels in inp["census"]]
    return st


def check_r(q: int, k: int, t: int, labels: list[int], r: int, where: str) -> None:
    """What the paper proves about the optimal redundancy of (f, t)."""
    if len(set(labels)) > 1:
        expect(r >= 2 * t, "lower-bound", f"{where}: r = {r} < 2t")
        if q >= k + 2 * t or labels == oracle.label_table("or", q, k):
            expect(r == 2 * t, "mds-equality", f"{where}: r = {r}, the paper proves 2t")
    else:
        expect(r == 0, "constant", f"{where}: constant function needs r = 0, got {r}")
    if q == 2:
        upper = oracle.binary_upper_bound(k, t)
        if upper is not None:
            expect(r < upper, "binary-upper", f"{where}: r = {r} not below {upper:.6f}")


def check_witness(q: int, k: int, t: int, labels: list[int], res, where: str) -> None:
    """The witness passes the benchmark's own pairwise check, and every
    infeasible r lies in [d_max, r)."""
    r = res.r
    expect(len(res.witness) == q**k and all(len(p) == r and all(0 <= x < q for x in p)
                                             for p in res.witness),
           "witness-shape", f"{where}: witness is not q^k parity vectors of length r")
    bad = oracle.first_violation(q, k, t, labels, res.witness)
    expect(bad is None, "witness", f"{where}: witness violates the condition at {bad}")
    d_max = oracle.largest_parity_demand(q, k, t, labels)
    expect(all(d_max <= x < r for x in res.infeasible), "infeasible",
           f"{where}: infeasible {res.infeasible} outside [{d_max}, {r})")


class Cell:
    """A sweep cell with its direct search, made before the timed phase."""

    def __init__(self, q, k, t, spec, direct):
        self.q, self.k, self.t, self.spec = q, k, t, spec
        self.direct = direct
        self.labels = oracle.label_table(spec, q, k)
        self.where = f"grid q={q} k={k} t={t} {spec}"


def _grid_op(cell: Cell) -> Op:
    q, k, t = cell.q, cell.k, cell.t
    grid = GridSpec(qs=(q,), ks=(k,), ts=(t,), functions=(cell.spec,))

    def run(tracer: Tracer):
        with tracer.span("cli.grid_row", q=q, k=k, t=t, function=cell.spec) as sp:
            row = next(run_experiment_grid(grid))
            sp.set(nodes=row.nodes, search_s=row.seconds,
                   infeasible=len(cell.direct.infeasible))
        if row.exact_r is None:
            raise RuntimeError(f"{cell.where}: exceeded the node budget")
        return row

    def check(row) -> None:
        check_r(q, k, t, cell.labels, row.exact_r, cell.where)
        direct = cell.direct
        expect((row.exact_r, row.nodes) == (direct.r, direct.nodes), "row-vs-search",
               f"{cell.where}: row has r={row.exact_r} nodes={row.nodes}, direct search "
               f"r={direct.r} nodes={direct.nodes}")
        nonconstant = len(set(cell.labels)) > 1
        expect(row.lower_2t == (2 * t if nonconstant else 0), "row-lower",
               f"{cell.where}: lower_2t = {row.lower_2t}")
        expect(row.sphere_packing_r == oracle.sphere_packing_r(q, k, t), "row-sphere",
               f"{cell.where}: sphere_packing_r = {row.sphere_packing_r}")
        expect(row.mds_equality == (q >= k + 2 * t), "row-mds", f"{cell.where}: mds_equality")

    return Op("grid_row", f"{q},{k},{t},{cell.spec}", run, check)


def _census_op(t: int, labels: list[int], f: FunctionTable) -> Op:
    k = f.k
    where = f"census t={t} labels={labels}"

    def run(tracer: Tracer):
        with tracer.span("search.exact_redundancy", q=2, k=k, t=t) as sp:
            res = exact_redundancy(f, t)
            sp.set(nodes=res.nodes, infeasible=len(res.infeasible))
        return res

    def check(res) -> None:
        check_r(2, k, t, labels, res.r, where)
        check_witness(2, k, t, labels, res, where)

    return Op("census", f"t={t}", run, check)


class Plan:
    def __init__(self, cells: list[Cell], ops: list[Op]):
        self.cells = cells
        self.ops = ops


def plan(st: State, rng: random.Random) -> Plan:
    """Search each sweep cell once directly; a grid row's check compares the
    row with this search, whose witness ``after_run`` checks."""
    cells, ops = [], []
    for q, k, t, spec in sweep_cells(st.cfg):
        cell = Cell(q, k, t, spec, exact_redundancy(st.cells[(q, k, spec)], t))
        cells.append(cell)
        ops += [_grid_op(cell)] * st.cfg["weighted"].get((q, k, t, spec.partition(":")[0]), 1)
    ops += [_census_op(t, labels, f) for t, labels, f in st.census]
    rng.shuffle(ops)
    return Plan(cells, ops)


def after_run(p: Plan, rec, tracer: Tracer) -> None:
    for cell in p.cells:
        check_witness(cell.q, cell.k, cell.t, cell.labels, cell.direct, cell.where)


def workload(size: str = "full") -> Workload:
    cfg = FULL if size == "full" else TINY
    return Workload(
        inputs=lambda rng: inputs(cfg, rng),
        setup=setup,
        plan=plan,
        round_ops=lambda p, rng: p.ops,
        setup_reps=15 if size == "full" else 1,
        min_rounds=2 if size == "full" else 1,
        after_run=after_run,
    )
