"""Generic linear-code machinery over F_q.

A code is given by a full-rank k x n generator matrix.  ``linear_encode``
encodes one message.  ``iter_projective_shells`` is the one codeword
walk: it yields one codeword of every nonzero projective class, from a
reduced row-echelon generator, by the Hamming weight w of its message on
the pivot columns; a codeword weighs at least w there, so a reader
looking for light codewords can stop after a few shells.  The walk keeps
each codeword as one int packed by ``Lanes``, one small bit field per
base-p coefficient of every symbol, so a step is one int addition and a
weight one popcount.  Minimum distance reads the shells, by linearity (c
and a*c have the same weight for every a != 0); it refuses to start when
q^k exceeds the budget rather than falling back to sampling.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from . import defaults
from .errors import BudgetExceeded, DimensionError, RankDeficient
from .gf import Field
from .vectors import check_rows, check_vector


class GeneratorMatrix:
    """k x n generator over a Field; rows checked for full rank (by
    elimination, unless the leading k x k block is the identity)."""

    __slots__ = ("field", "rows", "k", "n", "_systematic")

    def __init__(self, field: Field, rows: Sequence[Sequence[int]]):
        if not rows:
            raise DimensionError("generator matrix needs at least one row")
        k = len(rows)
        n = len(rows[0])
        if k > n:
            raise DimensionError(f"more rows ({k}) than columns ({n})")
        self.field = field
        self.rows = check_rows(rows, field.q, n, "generator row")
        self.k = k
        self.n = n
        self._systematic = all(
            row[i] == 1 and row[:k].count(0) == k - 1 for i, row in enumerate(self.rows)
        )
        # an identity block already proves rank k
        if not self._systematic and _rank(field, [list(r) for r in self.rows]) < k:
            raise RankDeficient(f"generator rows are dependent (k={k}, n={n})")

    @property
    def q(self) -> int:
        return self.field.q

    def is_systematic(self) -> bool:
        """True iff the leading k x k block is the identity (found once, by
        the constructor; the rows are immutable tuples)."""
        return self._systematic

    def __repr__(self) -> str:
        return f"GeneratorMatrix([{self.n},{self.k}]_{self.q})"


def _rank(field: Field, rows: list[list[int]]) -> int:
    """Gauss-Jordan elimination in place; returns the rank, and leaves
    rows[:rank] in reduced row-echelon form."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def linear_encode(g: GeneratorMatrix, u: Sequence[int]) -> tuple[int, ...]:
    """Codeword u . G as a length-n tuple."""
    u = check_vector(u, g.q, g.k, "message")
    f = g.field
    out = [0] * g.n
    for x, row in zip(u, g.rows):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = f.add(out[j], f.mul(x, y))
    return tuple(out)


class Lanes:
    """Length-n words over F_q = F_{p^m} packed into one int: one lane of
    L bits per base-p coefficient of every symbol.  Coefficient i of
    symbol j, digit i of its element index in base p, sits in lane
    j*m + i, so symbol 0 is in the low bits.

    In characteristic 2, L = 1: a symbol's lanes are its index, and two
    words add by XOR.  For odd p, L = bit_length(2p - 2) + 1, room for the
    sum of two coefficients below one guard bit (bit L-1 of the lane).  Two
    words add lane by lane, then every lane whose sum reached p drops p:
    those are the lanes where the sum plus 2^(L-1) - p sets the guard bit.

    A symbol is nonzero when its lanes, OR-folded onto its first lane,
    plus 2^(L-1) - 1 set that lane's guard bit (in characteristic 2 the
    guard bit is the lane itself), so a word's weight is one popcount.
    """

    __slots__ = ("p", "m", "n", "lane", "guard", "fix", "high", "nz", "flags", "folds", "spread")

    def __init__(self, field: Field, n: int):
        p, m = field.p, field.m
        self.p, self.m, self.n = p, m, n
        lane = 1 if p == 2 else (2 * p - 2).bit_length() + 1
        self.lane = lane
        self.guard = lane - 1
        every_lane = ((1 << lane * m * n) - 1) // ((1 << lane) - 1)
        first_lanes = ((1 << lane * m * n) - 1) // ((1 << lane * m) - 1)
        self.high = every_lane << self.guard
        self.fix = every_lane * ((1 << self.guard) - p) if p > 2 else 0
        self.nz = first_lanes * ((1 << self.guard) - 1)
        self.flags = first_lanes << self.guard
        # shifts that OR lanes 1..m-1 of each symbol onto its lane 0
        folds = []
        covered = 1
        while covered < m:
            step = min(covered, m - covered)
            folds.append(step * lane)
            covered += step
        self.folds = tuple(folds)
        # an element index's lanes: the index itself unless p is odd and m > 1
        if p == 2 or m == 1:
            self.spread = range(field.q)
        else:
            self.spread = [0]
            for i in range(m):
                self.spread = [s + (c << i * lane) for c in range(p) for s in self.spread]

    def pack(self, word: Sequence[int]) -> int:
        spread = self.spread
        width = self.lane * self.m
        x = 0
        for e in reversed(word):
            x = x << width | spread[e]
        return x

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        s = a + b
        return s - (((s + self.fix) & self.high) >> self.guard) * self.p

    def weight(self, x: int) -> int:
        for shift in self.folds:
            x |= x >> shift
        return ((x + self.nz) & self.flags).bit_count()


def iter_projective_shells(g: GeneratorMatrix) -> Iterator[tuple[int, int]]:
    """One codeword of every nonzero projective class, as (w, codeword)
    pairs in shells of message weight w = 1, 2, ..., k; each codeword is
    one int, packed by ``Lanes(g.field, g.n)``.

    G is first brought to reduced row-echelon form, so a codeword's
    restriction to the k pivot columns is its message and the codeword
    weighs at least w.  Only messages whose first nonzero symbol is 1 are
    walked: every other nonzero codeword is a nonzero multiple of one of
    these, with the same weight.  That is (q^k - 1) / (q - 1) codewords
    in all.  Within a support the last symbol runs through 1 .. q-1, and
    the symbols between the first and the last form an odometer that
    moves once per run; each step adds one packed, scaled row, by
    ``Lanes.add`` written out in the runs.
    """
    q, k, n = g.q, g.k, g.n
    f = g.field
    lanes = Lanes(f, n)
    add = lanes.add
    rows = g.rows
    if not g.is_systematic():  # [I_k | P] is already reduced
        rows = [list(row) for row in rows]
        _rank(f, rows)
    # a digit moves d -> d + 1 by adding (d+1-d) times its row, and wraps
    # q-1 -> 1 by adding (1-(q-1)) times it; neither happens when q = 2
    step_delta = [f.sub(d + 1, d) for d in range(1, q - 1)]
    wrap_delta = f.sub(1, q - 1) if q > 2 else 1
    scaled = [
        {
            s: lanes.pack(row if s == 1 else [f.mul(s, x) for x in row])
            for s in {1, wrap_delta, *step_delta}
        }
        for row in rows
    ]
    steps = [[by_scale[s] for s in step_delta] for by_scale in scaled]
    wraps = [by_scale[wrap_delta] for by_scale in scaled]
    p, guard, fix, high = lanes.p, lanes.guard, lanes.fix, lanes.high
    top = q - 1
    for w in range(1, k + 1):
        for support in combinations(range(k), w):
            cw = 0
            for i in support:
                cw = add(cw, scaled[i][1])
            yield w, cw
            if w == 1:
                continue
            # the last digit runs 1 .. q-1 by the steps of its row; the
            # digits before it form an odometer that moves once per run
            *outer, last = support[1:]
            run = steps[last]
            digits = [1] * len(outer)
            while True:
                if p == 2:
                    for row in run:
                        cw ^= row
                        yield w, cw
                else:
                    for row in run:
                        s = cw + row
                        cw = s - (((s + fix) & high) >> guard) * p
                        yield w, cw
                i = len(outer) - 1
                while i >= 0 and digits[i] == top:
                    i -= 1
                if i < 0:
                    break
                cw = add(cw, wraps[last])
                for j in range(i + 1, len(outer)):
                    cw = add(cw, wraps[outer[j]])
                    digits[j] = 1
                cw = add(cw, steps[outer[i]][digits[i] - 1])
                digits[i] += 1
                yield w, cw


def min_distance(g: GeneratorMatrix, budget: int = defaults.ENUMERATION_BUDGET) -> int:
    """Minimum Hamming weight over the q^k - 1 nonzero codewords.

    Reads ``iter_projective_shells`` and stops at shell w once the best
    weight found is at most w, since every codeword not yet seen weighs
    at least w.  A codeword's weight is one popcount over the nonzero
    flags of its packed symbols.  The budget still counts all q^k
    codewords.
    """
    total = g.q**g.k
    if total > budget:
        raise BudgetExceeded(
            f"min_distance needs {total} codewords, budget is {budget}",
            required=total,
            budget=budget,
            unit="codewords",
        )
    lanes = Lanes(g.field, g.n)
    nz, flags, folds = lanes.nz, lanes.flags, lanes.folds
    best = g.n + 1
    for w, cw in iter_projective_shells(g):
        if best <= w:
            break
        # Lanes.weight, written out
        for shift in folds:
            cw |= cw >> shift
        weight = ((cw + nz) & flags).bit_count()
        if weight < best:
            best = weight
    return best
