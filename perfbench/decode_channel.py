"""decode_channel: seeded messages through encode, channel and decode.

Mirrors ``fcckit simulate``.  Each operation draws a message, encodes it,
adds an error of weight w with ``channel.inject`` and decodes the received
word with ``fcc_decode`` (non-strict).  Every round runs each cell once
per weight 0, 1, 2 (per pass), in a seeded order, so each weight is drawn
uniformly and every round has the same mix of cheap and full codebook
scans.  The cells use the codebook two opposite ways:

* rs(9,5,2), odd p^m field, q^k = 59049: cached after the first full scan;
* rs(16,4,2), 2^m field, q^k = 65536: cached, exactly at the cache cap;
* rs(17,4,2), prime field, q^k = 83521: over the cap, so every decode
  re-encodes every message;
* bch(15,2), binary, q^k = 32768: cached, decoded for hamming_weight.

rs(9,5,2) runs two passes of the three weights per round, so a round is 15
operations and its median falls among the cached full scans; the two full
scans of rs(17,4,2) in each of at least eight rounds hold the eleventh-largest
sample, which is the tail.

Each (cell, weight, pass) slot draws its messages from its own evenly
spread rank sequence (``Ranks``), so the median and tail do not move with
the seed.
"""

from __future__ import annotations

import math
import random

from harness import Op, Tracer, Workload, expect
import oracle
import roundtrip

from fcckit import bch_systematic, fcc_decode, fcc_encode, inject, rs_systematic
from fcckit.cli import parse_function_spec

CODEBOOK_CAP = 65536  # fcckit caches a scheme's codewords up to this many messages
GOLDEN = (math.sqrt(5) - 1) / 2  # successive multiples of 1/phi fill [0, 1) evenly

# (name, family, q, k, t, passes of the weights 0..t per round); the
# function spec of each cell is drawn with the inputs.
FULL_CELLS = (
    ("rs9", "rs", 9, 5, 2, 2),
    ("rs16", "rs", 16, 4, 2, 1),
    ("rs17", "rs", 17, 4, 2, 1),
    ("bch15", "bch", 2, 15, 2, 1),
)
TINY_CELLS = (
    ("rs7", "rs", 7, 3, 2, 1),
    ("rs8", "rs", 8, 3, 2, 1),
    ("bch7", "bch", 2, 7, 2, 1),
)


def _function_spec(name: str, q: int, k: int, rng: random.Random) -> str:
    if name.startswith("bch"):
        return "hamming_weight"
    if name in ("rs9", "rs7"):
        return "identity"
    if q & (q - 1) == 0:
        return f"threshold:{rng.randint(1, k)}"
    coeffs = [rng.randint(0, 1) for _ in range(k)]
    coeffs[rng.randrange(k)] = 1
    return "linear:" + ",".join(map(str, coeffs))


class Cell:
    def __init__(self, name, q, k, t, passes, spec, scheme, f):
        self.name, self.q, self.k, self.t, self.passes = name, q, k, t, passes
        self.spec = spec
        self.scheme = scheme
        self.f = f
        self.cached = q**k <= CODEBOOK_CAP


def inputs(cells, rng: random.Random) -> list[tuple]:
    """Each cell with its function spec and a message and error seed for the
    decode that fills its codebook."""
    return [(name, family, q, k, t, passes, _function_spec(name, q, k, rng),
             oracle.unrank(rng.randrange(q**k), q, k), rng.getrandbits(32))
            for name, family, q, k, t, passes in cells]


def setup(cells: list[tuple], tracer: Tracer) -> list[Cell]:
    """Build, save and reload each encoder, build the function tables, and
    fill each cacheable codebook with one full-scan decode."""
    out = []
    for name, family, q, k, t, passes, spec, u, error_seed in cells:
        with tracer.span(f"constructions.{family}", cell=name):
            report = rs_systematic(q, k, t) if family == "rs" else bch_systematic(k, t)
        scheme = roundtrip.scheme(tracer, report.scheme)
        f = parse_function_spec(spec, q, k)
        cell = Cell(name, q, k, t, passes, spec, scheme, f)
        if cell.cached:
            # Every later decode of this cell reads the codebook this fills,
            # and those decodes are checked.
            y = inject(scheme.field, fcc_encode(scheme, u), 1, seed=error_seed)
            with tracer.span("fcc.codebook_fill", cell=name):
                fcc_decode(scheme, f, t, y, strict=False)
        out.append(cell)
    return out


def _decode_op(cell: Cell, u: tuple[int, ...], w: int, error_seed: int) -> Op:
    def run(tracer: Tracer):
        with tracer.span("fcc.encode", cell=cell.name):
            cw = fcc_encode(cell.scheme, u)
        with tracer.span("channel.inject", cell=cell.name):
            y = inject(cell.scheme.field, cw, w, seed=error_seed)
        with tracer.span("fcc.decode", cell=cell.name, cached=cell.cached):
            outcome = fcc_decode(cell.scheme, cell.f, cell.t, y, strict=False)
        return cw, y, outcome

    def check(result) -> None:
        cw, y, outcome = result
        where = f"{cell.name} u={u} w={w}"
        expect(tuple(cw[: cell.k]) == u, "systematic", f"{where}: codeword starts {cw[:cell.k]}")
        expect(oracle.distance(y, cw) == w, "received", f"{where}: y differs from c in "
               f"{oracle.distance(y, cw)} positions")
        want = oracle.label(cell.spec, u, cell.q)
        expect(outcome.label == want, "label", f"{where}: label {outcome.label}, f(u) = {want}")
        expect(outcome.distance == w, "distance", f"{where}: distance {outcome.distance}")
        expect(outcome.within_radius is True, "radius", f"{where}: not within radius")

    return Op("decode", cell.name, run, check)


class Ranks:
    """Message ranks for one (cell, weight, pass) slot, spread evenly over [0, q^k).

    A decode's cost grows with the rank of the sent message: the scan runs
    up to it with a loose distance bound, and an exact match stops it there.
    Ranks drawn independently would move a run's median and tail with the
    seed; the golden-ratio sequence from a seeded start covers [0, q^k)
    evenly for any number of draws.
    """

    def __init__(self, total: int, start: float):
        self.total, self.start, self.drawn = total, start, 0

    def next(self) -> int:
        x = (self.start + self.drawn * GOLDEN) % 1.0
        self.drawn += 1
        return int(x * self.total)


def plan(cells: list[Cell], rng: random.Random) -> list[tuple[Cell, list[tuple[int, Ranks]]]]:
    """Each cell with one rank stream per weight and pass of a round."""
    return [(cell, [(w, Ranks(cell.q**cell.k, rng.random()))
                    for w in range(cell.t + 1) for _ in range(cell.passes)])
            for cell in cells]


def round_ops(slots, rng: random.Random) -> list[Op]:
    ops = []
    for cell, streams in slots:
        for w, ranks in streams:
            u = oracle.unrank(ranks.next(), cell.q, cell.k)
            ops.append(_decode_op(cell, u, w, rng.getrandbits(32)))
    rng.shuffle(ops)
    return ops


def workload(size: str = "full") -> Workload:
    cells = FULL_CELLS if size == "full" else TINY_CELLS
    return Workload(
        inputs=lambda rng: inputs(cells, rng),
        setup=setup,
        plan=plan,
        round_ops=round_ops,
        setup_reps=2 if size == "full" else 1,
        min_rounds=8 if size == "full" else 1,
    )
