"""Generic linear-code machinery over F_q.

A code is given by a full-rank k x n generator matrix.  ``linear_encode``
encodes one message.  ``iter_projective_shells`` is the one codeword
walk: it yields one codeword of every nonzero projective class, from a
reduced row-echelon generator, by the Hamming weight w of its message on
the pivot columns; a codeword weighs at least w there, so a reader
looking for light codewords can stop after a few shells.  Minimum
distance reads the shells, by linearity (c and a*c have the same weight
for every a != 0); it refuses to start when q^k exceeds the budget
rather than falling back to sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from . import defaults
from .errors import BudgetExceeded, DimensionError, RankDeficient
from .gf import Field
from .vectors import check_rows, check_vector


@dataclass(frozen=True)
class CodeSummary:
    """Shape [n, k, d]_q plus the systematic and MDS predicates."""

    n: int
    k: int
    q: int
    d: int
    is_systematic: bool
    is_mds: bool


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


def iter_projective_shells(g: GeneratorMatrix) -> Iterator[tuple[int, list[int]]]:
    """One codeword of every nonzero projective class, as (w, codeword)
    pairs in shells of message weight w = 1, 2, ..., k.

    G is first brought to reduced row-echelon form, so a codeword's
    restriction to the k pivot columns is its message and the codeword
    weighs at least w.  Only messages whose first nonzero symbol is 1 are
    walked: every other nonzero codeword is a nonzero multiple of one of
    these, with the same weight.  That is (q^k - 1) / (q - 1) codewords
    in all.  Within a support the codeword is stepped by an odometer over
    the nonzero symbols after the first, updating one list in place from
    scaled rows, so a consumer that keeps a codeword must copy it.
    """
    q, k, n = g.q, g.k, g.n
    f = g.field
    add = f.add
    rows = [list(row) for row in g.rows]
    _rank(f, rows)
    scaled = [
        {s: [(j, f.mul(s, x)) for j, x in enumerate(row) if x] for s in range(1, q)}
        for row in rows
    ]
    wrap_delta = f.sub(1, q - 1)
    step_delta = [f.sub(d + 1, d) for d in range(q - 1)]
    for w in range(1, k + 1):
        steps = (q - 1) ** (w - 1) - 1
        for support in combinations(range(k), w):
            cw = [0] * n
            for i in support:
                for j, x in scaled[i][1]:
                    cw[j] = add(cw[j], x)
            yield w, cw
            rest = [scaled[i] for i in support[1:]]
            digits = [1] * (w - 1)
            for _ in range(steps):
                i = w - 2
                while digits[i] == q - 1:
                    for j, x in rest[i][wrap_delta]:
                        cw[j] = add(cw[j], x)
                    digits[i] = 1
                    i -= 1
                for j, x in rest[i][step_delta[digits[i]]]:
                    cw[j] = add(cw[j], x)
                digits[i] += 1
                yield w, cw


def min_distance(g: GeneratorMatrix, budget: int = defaults.ENUMERATION_BUDGET) -> int:
    """Minimum Hamming weight over the q^k - 1 nonzero codewords.

    Reads ``iter_projective_shells`` and stops at shell w once the best
    weight found is at most w, since every codeword not yet seen weighs
    at least w.  The budget still counts all q^k codewords.
    """
    total = g.q**g.k
    if total > budget:
        raise BudgetExceeded(
            f"min_distance needs {total} codewords, budget is {budget}",
            required=total,
            budget=budget,
            unit="codewords",
        )
    n = g.n
    best = n + 1
    for w, cw in iter_projective_shells(g):
        if best <= w:
            break
        weight = n - cw.count(0)
        if weight < best:
            best = weight
    return best


def summarize(g: GeneratorMatrix, budget: int = defaults.ENUMERATION_BUDGET) -> CodeSummary:
    """Full [n, k, d]_q summary with systematic and MDS predicates."""
    d = min_distance(g, budget)
    return CodeSummary(
        n=g.n,
        k=g.k,
        q=g.q,
        d=d,
        is_systematic=g.is_systematic(),
        is_mds=d == g.n - g.k + 1,
    )
