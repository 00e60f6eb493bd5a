"""Generic linear-code machinery over F_q.

A code is given by a full-rank k x n generator matrix.  Its q^k
codewords are enumerated in one place, ``iter_codewords``: a base-q
odometer over the messages that updates the running codeword only on the
digits that changed.  Minimum distance is the minimum nonzero codeword
weight over that stream, by linearity; it refuses to start when q^k
exceeds the budget rather than falling back to sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from . import defaults
from .errors import BudgetExceeded, DimensionError, RankDeficient
from .gf import Field
from .vectors import check_vector


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

    __slots__ = ("field", "rows", "k", "n")

    def __init__(self, field: Field, rows: Sequence[Sequence[int]]):
        if not rows:
            raise DimensionError("generator matrix needs at least one row")
        k = len(rows)
        n = len(rows[0])
        if k > n:
            raise DimensionError(f"more rows ({k}) than columns ({n})")
        self.field = field
        self.rows = tuple(check_vector(row, field.q, n, "generator row") for row in rows)
        self.k = k
        self.n = n
        # an identity block already proves rank k
        if not self.is_systematic() and _rank(field, [list(r) for r in self.rows]) < k:
            raise RankDeficient(f"generator rows are dependent (k={k}, n={n})")

    @property
    def q(self) -> int:
        return self.field.q

    def is_systematic(self) -> bool:
        """True iff the leading k x k block is the identity."""
        k = self.k
        return all(row[i] == 1 and row[:k].count(0) == k - 1 for i, row in enumerate(self.rows))

    def __repr__(self) -> str:
        return f"GeneratorMatrix([{self.n},{self.k}]_{self.q})"


def _rank(field: Field, rows: list[list[int]]) -> int:
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


def iter_codewords(g: GeneratorMatrix) -> Iterator[list[int]]:
    """Every codeword u . G in message-rank order, starting with zero.

    Walks the messages with a base-q odometer, updating the running
    codeword only on the digits it changed.  The same list is yielded
    every time and updated in place, so a consumer that keeps a codeword
    must copy it.
    """
    q, k, n = g.q, g.k, g.n
    f = g.field
    add = f.add
    # Each step adds a nonzero multiple of one row: only the row's nonzero
    # entries change the codeword, and a systematic row has k - 1 zeros.
    scaled = [
        {s: [(j, f.mul(s, x)) for j, x in enumerate(row) if x] for s in range(1, q)}
        for row in g.rows
    ]
    wrap_delta = f.sub(0, q - 1)
    step_delta = [f.sub(d + 1, d) for d in range(q - 1)]
    digits = [0] * k
    cw = [0] * n
    yield cw
    for _ in range(q**k - 1):
        i = k - 1
        while digits[i] == q - 1:
            for j, x in scaled[i][wrap_delta]:
                cw[j] = add(cw[j], x)
            digits[i] = 0
            i -= 1
        for j, x in scaled[i][step_delta[digits[i]]]:
            cw[j] = add(cw[j], x)
        digits[i] += 1
        yield cw


def min_distance(g: GeneratorMatrix, budget: int = defaults.ENUMERATION_BUDGET) -> int:
    """Minimum Hamming weight over the q^k - 1 nonzero codewords."""
    total = g.q**g.k
    if total > budget:
        raise BudgetExceeded(
            f"min_distance needs {total} codewords, budget is {budget}",
            required=total,
            budget=budget,
            unit="codewords",
        )
    n = g.n
    return min(n - cw.count(0) for cw in islice(iter_codewords(g), 1, None))


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
