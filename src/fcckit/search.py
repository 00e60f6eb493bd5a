"""Exact optimal redundancy by backtracking over parity assignments.

The search treats a systematic encoder as nothing more than a parity map
p: F_q^k -> F_q^r, so it ranges over every encoder the definition admits,
not just linear ones.  For each unordered message pair with different
function values the pair needs parity distance max(0, 2t+1 - d_H(u, v));
r is grown from the largest such demand until a depth-first assignment
succeeds.  Infeasibility at a given r is only ever claimed after the
search tree is exhausted; running out of node budget raises instead.

Parities are addressed by rank in [0, q^r), and a set of parities is an
int bitmask over those ranks.  For each parity value a already assigned,
the search builds once per r the masks far(a)[need] of the parities at
distance >= need from a; the candidates open to a message are the AND of
those masks over its demands, and the next candidate is the lowest set
bit past the last one tried.  A node is one candidate parity at one
message, so the candidates that bit scan skips count as nodes too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import defaults
from .errors import BudgetExceeded
from .fcc import FccScheme, FunctionTable
from .vectors import (
    check_radius,
    digit_masks,
    far_sets,
    message_rank,
    messages_by_weight,
    unrank_message,
)


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
        q, k = f.q, f.k
        order = tuple(messages_by_weight(q, k))
        labels = [f.values[message_rank(u, q)] for u in order]
        # Each digit packed into a field of `width` bits: a field of the XOR
        # is nonzero exactly where the digits differ, and OR-folding it onto
        # its low bit lets one bit_count give the Hamming distance.
        width = (q - 1).bit_length()
        packed = [message_rank(u, 1 << width) for u in order]
        low = message_rank((1,) * k, 1 << width)
        folds = range(1, width)
        full = 2 * t + 1
        # A (j, need) entry recurs in many rows; rows share one tuple each.
        shared: dict[int, tuple[int, int]] = {}
        demands = []
        d_max = 0
        for i, (label, pu) in enumerate(zip(labels, packed)):
            row = []
            for j in range(i):
                if labels[j] == label:
                    continue
                x = pu ^ packed[j]
                y = x
                for s in folds:
                    y |= x >> s
                need = full - (y & low).bit_count()
                if need > 0:
                    key = j * full + need
                    entry = shared.get(key)
                    if entry is None:
                        entry = shared[key] = (j, need)
                    row.append(entry)
                    if need > d_max:
                        d_max = need
            demands.append(tuple(row))
        return cls(q=q, k=k, t=t, order=order, demands=tuple(demands), d_max=d_max)


@dataclass(frozen=True, slots=True)
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


def exact_redundancy(
    f: FunctionTable, t: int, budget: int = defaults.SEARCH_NODE_BUDGET
) -> RedundancySearchResult:
    """Smallest r admitting a valid parity map for (f, t), found exactly.

    Messages are assigned parities in (weight, lex) order with the first
    parity pinned to the zero vector (translating every parity by a
    constant preserves all pairwise distances, so this loses nothing).
    The candidates open to a message are one bitset AND over its demands,
    and the search takes them in rank order.  A node is one candidate
    parity tried at one message, whether it is taken or ruled out by that
    AND; exceeding the node budget raises BudgetExceeded carrying the
    bounds proven so far.  A search that finishes takes at least one node
    at each message after the first, so one with more than budget + 1
    messages is refused before any work, with the unit "nodes".
    """
    check_radius(t)
    q = f.q
    total = q**f.k
    if total - 1 > budget:
        raise BudgetExceeded(
            f"redundancy search needs at least {total - 1} nodes, budget is {budget}",
            required=total - 1,
            budget=budget,
            unit="nodes",
        )
    reqs = RequirementSet.build(f, t)
    demands = reqs.demands
    nodes = 0
    infeasible: list[int] = []
    r = reqs.d_max
    while True:
        size = q**r
        ones = (1 << size) - 1
        same = digit_masks(q, r)
        far_of: dict[int, list[int]] = {}
        assigned = [0] * total
        allowed = [0] * total
        next_cand = [0] * (total + 1)
        pos = 1
        while 1 <= pos < total:
            cand = next_cand[pos]
            if cand == 0:
                mask = ones
                for j, need in demands[pos]:
                    a = assigned[j]
                    far = far_of.get(a)
                    if far is None:
                        digits = unrank_message(a, q, r)
                        far = far_of[a] = far_sets(same, digits, reqs.d_max, ones, ones)
                    mask &= far[need]
                    if not mask:
                        break
                allowed[pos] = mask
            rest = allowed[pos] >> cand
            tried = (rest & -rest).bit_length() if rest else size - cand
            if nodes + tried > budget:
                raise BudgetExceeded(
                    f"redundancy search exceeded {budget} nodes at r = {r}",
                    nodes=budget + 1,
                    trying_r=r,
                    proven_infeasible=tuple(infeasible),
                    lower_bound=r,
                )
            nodes += tried
            if rest:
                cand += tried
                assigned[pos] = cand - 1
                next_cand[pos] = cand
                pos += 1
                next_cand[pos] = 0
            else:
                next_cand[pos] = 0
                pos -= 1
        if pos == total:
            parities: dict[int, tuple[int, ...]] = {}
            witness: list[tuple[int, ...]] = [()] * total
            for u, a in zip(reqs.order, assigned):
                p = parities.get(a)
                if p is None:
                    p = parities[a] = unrank_message(a, q, r)
                witness[message_rank(u, q)] = p
            return RedundancySearchResult(
                q=q,
                k=f.k,
                r=r,
                witness=tuple(witness),
                nodes=nodes,
                infeasible=tuple(infeasible),
            )
        infeasible.append(r)
        r += 1
