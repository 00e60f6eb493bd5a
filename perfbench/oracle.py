"""Computations the checks compare fcckit against, written apart from fcckit.

Nothing here imports fcckit: labels, distances, ball volumes, the binary
upper bound and the pairwise condition are recomputed from their
definitions, so a fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from itertools import product
from operator import ne


def messages(q: int, k: int) -> list[tuple[int, ...]]:
    """All q^k messages in rank order (leftmost coordinate most significant)."""
    return list(product(range(q), repeat=k))


def rank(u, q: int) -> int:
    r = 0
    for x in u:
        r = r * q + x
    return r


def unrank(r: int, q: int, k: int) -> tuple[int, ...]:
    out = [0] * k
    for i in range(k - 1, -1, -1):
        r, out[i] = divmod(r, q)
    return tuple(out)


def weight(u) -> int:
    return sum(1 for x in u if x)


def distance(u, v) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(map(ne, u, v))


def field_sum(values, q: int) -> int:
    """Sum of element indices in F_q for prime q or q = 2^m.

    For q = 2^m the index is the coefficient vector read as a binary
    numeral, so field addition is XOR of indices.
    """
    if q & (q - 1) == 0:
        acc = 0
        for x in values:
            acc ^= x
        return acc
    if any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"field_sum supports prime q and q = 2^m, got {q}")
    return sum(values) % q


def label(spec: str, u, q: int) -> int:
    """f(u) for a built-in function spec, from the function's definition."""
    name, _, aux = spec.partition(":")
    if name == "or":
        return int(any(u))
    if name == "constant":
        return 0
    if name == "identity":
        return rank(u, q)
    if name == "hamming_weight":
        return weight(u)
    if name == "threshold":
        return int(weight(u) >= int(aux))
    if name == "linear":
        coeffs = [int(c) for c in aux.split(",")]
        if any(c not in (0, 1) for c in coeffs):
            raise ValueError("the oracle's linear functions use 0/1 coefficients")
        return field_sum([x for c, x in zip(coeffs, u) if c], q)
    raise ValueError(f"no oracle for {spec!r}")


def label_table(spec: str, q: int, k: int) -> list[int]:
    return [label(spec, u, q) for u in messages(q, k)]


def ball_volume(n: int, t: int, q: int) -> int:
    return sum(math.comb(n, j) * (q - 1) ** j for j in range(min(t, n) + 1))


def sphere_packing_r(q: int, k: int, t: int) -> int:
    """Smallest r with q^r at least the radius-t ball volume in F_q^(k+r)."""
    r = 0
    while q**r < ball_volume(k + r, t, q):
        r += 1
    return r


def binary_upper_bound(k: int, t: int) -> float | None:
    """t log2(2k) / (1 - (t/k) log2 e), or None where it is undefined."""
    if k < 2:
        return None
    denom = 1.0 - (t / k) * math.log2(math.e)
    if denom <= 0:
        return None
    return t * math.log2(2 * k) / denom


def pairs_with_different_labels(labels: list[int]) -> int:
    """(N^2 - sum_l n_l^2) / 2 unordered pairs whose labels differ."""
    counts: dict[int, int] = {}
    for x in labels:
        counts[x] = counts.get(x, 0) + 1
    n = len(labels)
    return (n * n - sum(c * c for c in counts.values())) // 2


def largest_parity_demand(q: int, k: int, t: int, labels: list[int]) -> int:
    """max over pairs with different labels of 2t+1 - d(u, v), at least 0."""
    msgs = messages(q, k)
    need = 2 * t + 1
    best = 0
    for i, u in enumerate(msgs):
        li = labels[i]
        for j in range(i):
            if labels[j] != li:
                d = sum(map(ne, u, msgs[j]))
                if need - d > best:
                    best = need - d
    return best


def first_violation(q: int, k: int, t: int, labels: list[int], parities) -> tuple | None:
    """A pair with different labels at codeword distance <= 2t, or None.

    ``parities`` is indexed by message rank; the codeword is (u, p(u)).
    """
    msgs = messages(q, k)
    need = 2 * t + 1
    for i, u in enumerate(msgs):
        li, pi = labels[i], parities[i]
        for j in range(i):
            if labels[j] != li:
                d = sum(map(ne, u, msgs[j])) + sum(map(ne, pi, parities[j]))
                if d < need:
                    return msgs[j], u, d
    return None
