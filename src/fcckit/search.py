"""Exact optimal redundancy by backtracking over parity assignments.

The search treats a systematic encoder as nothing more than a parity map
p: F_q^k -> F_q^r, so it ranges over every encoder the definition admits,
not just linear ones.  For each unordered message pair with different
function values the pair needs parity distance max(0, 2t+1 - d_H(u, v));
r is grown from the largest such demand until a depth-first assignment
succeeds.  Infeasibility at a given r is only ever claimed after the
search tree is exhausted; running out of node budget raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import defaults
from .errors import BudgetExceeded, DimensionError
from .fcc import FccScheme, FunctionTable
from .vectors import (
    check_radius,
    hamming_distance,
    message_rank,
    messages_by_weight,
    unrank_message,
)


def pair_requirement(
    u: Sequence[int], v: Sequence[int], f: FunctionTable, t: int
) -> int:
    """Parity distance the pair (u, v) needs: max(0, 2t+1 - d_H(u, v)),
    or 0 when the function values agree."""
    u = tuple(u)
    v = tuple(v)
    if u == v:
        raise DimensionError("pair requirement needs two distinct messages")
    if f.label(u) == f.label(v):
        return 0
    return max(0, 2 * t + 1 - hamming_distance(u, v))


@dataclass(frozen=True)
class RequirementSet:
    """Positive parity-distance demands between (weight, lex)-ordered messages.

    ``order`` lists all q^k messages; ``demands[i]`` holds (j, D) entries
    with j < i and D >= 1.  Pairs with equal labels or with message
    distance already >= 2t+1 impose nothing and are dropped.
    """

    q: int
    k: int
    t: int
    order: tuple[tuple[int, ...], ...]
    demands: tuple[tuple[tuple[int, int], ...], ...]
    d_max: int

    @classmethod
    def build(cls, f: FunctionTable, t: int) -> "RequirementSet":
        order = tuple(messages_by_weight(f.q, f.k))
        labels = [f.values[message_rank(u, f.q)] for u in order]
        demands = []
        d_max = 0
        full = 2 * t + 1
        for i, u in enumerate(order):
            row = []
            for j in range(i):
                if labels[i] == labels[j]:
                    continue
                need = full - hamming_distance(u, order[j])
                if need > 0:
                    row.append((j, need))
                    if need > d_max:
                        d_max = need
            demands.append(tuple(row))
        return cls(q=f.q, k=f.k, t=t, order=order, demands=tuple(demands), d_max=d_max)


@dataclass(frozen=True)
class RedundancySearchResult:
    """Exact r with a verifying witness parity table (rank-indexed)."""

    q: int
    k: int
    r: int
    witness: tuple[tuple[int, ...], ...]
    nodes: int
    infeasible: tuple[int, ...]

    def scheme(self) -> FccScheme:
        return FccScheme.tabular(self.q, self.k, self.witness)


def _parity_metric(q: int, r: int) -> Callable[[int, int], int]:
    """Hamming distance between parity vectors addressed by rank."""
    if q == 2:
        return lambda a, b: (a ^ b).bit_count()
    digits = [unrank_message(i, q, r) for i in range(q**r)]
    return lambda a, b: sum(1 for x, y in zip(digits[a], digits[b]) if x != y)


def exact_redundancy(
    f: FunctionTable, t: int, budget: int = defaults.SEARCH_NODE_BUDGET
) -> RedundancySearchResult:
    """Smallest r admitting a valid parity map for (f, t), found exactly.

    Messages are assigned parities in (weight, lex) order with the first
    parity pinned to the zero vector (translating every parity by a
    constant preserves all pairwise distances, so this loses nothing).
    A node is one candidate parity tried at one message; exceeding the
    node budget raises BudgetExceeded carrying the bounds proven so far.
    """
    check_radius(t)
    reqs = RequirementSet.build(f, t)
    total = f.q**f.k
    nodes = 0
    infeasible: list[int] = []
    r = reqs.d_max
    while True:
        size = f.q**r
        dist = _parity_metric(f.q, r)
        demands = reqs.demands
        assigned = [0] * total
        next_cand = [0] * (total + 1)
        pos = 1
        while 1 <= pos < total:
            row = demands[pos]
            cand = next_cand[pos]
            advanced = False
            while cand < size:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(
                        f"redundancy search exceeded {budget} nodes at r = {r}",
                        nodes=nodes,
                        trying_r=r,
                        proven_infeasible=tuple(infeasible),
                        lower_bound=r,
                    )
                for j, need in row:
                    if dist(cand, assigned[j]) < need:
                        break
                else:
                    assigned[pos] = cand
                    next_cand[pos] = cand + 1
                    pos += 1
                    next_cand[pos] = 0
                    advanced = True
                    break
                cand += 1
            if not advanced:
                next_cand[pos] = 0
                pos -= 1
        if pos == total:
            witness: list[tuple[int, ...]] = [()] * total
            for i, u in enumerate(reqs.order):
                witness[message_rank(u, f.q)] = unrank_message(assigned[i], f.q, r)
            return RedundancySearchResult(
                q=f.q,
                k=f.k,
                r=r,
                witness=tuple(witness),
                nodes=nodes,
                infeasible=tuple(infeasible),
            )
        infeasible.append(r)
        r += 1
