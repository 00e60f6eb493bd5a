"""Message-vector helpers: Hamming metrics and lexicographic ranking.

Messages are tuples of canonical field-element indices.  The rank of a
message is its position in lexicographic order with the leftmost
coordinate most significant, i.e. ``rank = sum(u[i] * q**(k-1-i))``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Sequence

from .errors import DimensionError


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


def message_rank(u: Sequence[int], q: int) -> int:
    rank = 0
    for x in u:
        rank = rank * q + x
    return rank


def unrank_message(rank: int, q: int, k: int) -> tuple[int, ...]:
    out = [0] * k
    for i in range(k - 1, -1, -1):
        rank, out[i] = divmod(rank, q)
    return tuple(out)


def iter_messages(q: int, k: int) -> Iterator[tuple[int, ...]]:
    """All q^k messages in lexicographic (rank) order."""
    return product(range(q), repeat=k)


def messages_of_weight(q: int, k: int, w: int) -> Iterator[tuple[int, ...]]:
    """The messages of Hamming weight w in lexicographic order: one shell
    of ``messages_by_weight``, generated lazily for scans that stop early
    (sorting all q^k messages is faster when every shell is needed)."""
    if k == 0:
        if w == 0:
            yield ()
        return
    if w < k:
        for rest in messages_of_weight(q, k - 1, w):
            yield (0,) + rest
    if w > 0:
        for x in range(1, q):
            for rest in messages_of_weight(q, k - 1, w - 1):
                yield (x,) + rest


def messages_at_distance(
    center: Sequence[int], q: int, s: int
) -> Iterator[tuple[int, ...]]:
    """The C(k, s) (q-1)^s messages at Hamming distance exactly s from
    ``center``, one ring of the ball around it: for each set of s
    positions, in ``itertools.combinations`` order, every way to change
    each of them to another symbol, lexicographically.  The rings are not
    in rank order; a scan that breaks ties by rank compares ranks.
    """
    center = tuple(center)
    others = [tuple(x for x in range(q) if x != c) for c in center]
    for support in combinations(range(len(center)), s):
        for values in product(*(others[i] for i in support)):
            u = list(center)
            for i, x in zip(support, values):
                u[i] = x
            yield tuple(u)


# byte w -> w + 1: one translate adds one to every weight of a table
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def weight_table(q: int, k: int) -> bytes:
    """Hamming weight of every message of F_q^k in rank order, one byte
    each, built digit by digit: prepending the digit 0 keeps every weight,
    and each of the q - 1 nonzero digits adds one (a weight fits in a byte
    for every k whose q^k table fits in memory)."""
    weights = b"\0"
    for _ in range(k):
        weights += weights.translate(_PLUS_ONE) * (q - 1)
    return weights


def messages_by_weight(q: int, k: int) -> list[tuple[int, ...]]:
    """All q^k messages sorted by (Hamming weight, lexicographic) order:
    the ranks, stably sorted by weight, stay in rank (lexicographic) order
    within a weight."""
    messages = list(iter_messages(q, k))
    ranks = sorted(range(q**k), key=weight_table(q, k).__getitem__)
    return list(map(messages.__getitem__, ranks))


def digit_masks(q: int, length: int) -> list[list[int]]:
    """``same[i][v]``: the bitmask over the q^length ranks (bit j for rank
    j) whose digit i, leftmost most significant, equals v.  Digit i is
    constant on runs of q^(length-1-i) ranks that repeat with period
    q^(length-i), so each mask is the digit-0 mask shifted by v runs."""
    ones = (1 << q**length) - 1
    same = []
    for i in range(length):
        block = q ** (length - 1 - i)
        zeros = ones // ((1 << (q * block)) - 1) * ((1 << block) - 1)
        same.append([zeros << (v * block) for v in range(q)])
    return same


def far_sets(
    same: Sequence[Sequence[int]], a: Sequence[int], top: int, ones: int, start: int
) -> list[int]:
    """``far[need]`` for need in 0..top: the ranks in ``start`` at Hamming
    distance >= need from the word with digits ``a``, counted digit by
    digit over the masks ``same[i][v]`` of the ranks whose digit i is v
    (``ones`` is every rank).  Each digit costs one int operation per
    layer, on ints as wide as the rank range."""
    far = [start] + [0] * top
    for i, v in enumerate(a):
        differ = ones ^ same[i][v]
        for need in range(min(i + 1, top), 0, -1):
            far[need] |= far[need - 1] & differ
    return far


def check_radius(t: int) -> None:
    """Reject a negative correction radius t."""
    if t < 0:
        raise DimensionError(f"t must be non-negative, got {t}")


def check_vector(u: Sequence[int], q: int, length: int, what: str = "vector") -> tuple[int, ...]:
    """Validate symbol range and length; return the vector as a tuple."""
    if len(u) != length:
        raise DimensionError(f"{what} has length {len(u)}, expected {length}")
    for x in u:
        if not (0 <= x < q):
            raise DimensionError(f"{what} symbol {x} outside [0, {q})")
    return tuple(u)


def check_rows(
    rows: Sequence[Sequence[int]], q: int, length: int, what: str = "row"
) -> tuple[tuple[int, ...], ...]:
    """``check_vector`` on every row, validated in bulk (row lengths as one
    set, symbols by the min and max of the set of every row's symbols);
    return the rows as tuples.  Only when that fails are the rows checked
    one by one, so the error names the first bad row exactly as
    ``check_vector`` would."""
    rows = tuple(map(tuple, rows))
    symbols = set().union(*rows)
    if set(map(len, rows)) <= {length} and (
        not symbols or (min(symbols) >= 0 and max(symbols) < q)
    ):
        return rows
    for row in rows:
        check_vector(row, q, length, what)
    raise AssertionError("bulk row check rejected rows that check_vector accepts")
