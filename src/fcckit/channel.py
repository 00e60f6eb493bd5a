"""Symbol-error channel: seeded exact-weight corruption and exhaustive
error enumeration.

Corruption is field addition y = c + e (not symbol substitution), with e
of exactly the requested weight; sweeping the weight from 0 to t covers
the whole "up to t errors" model deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

from . import defaults
from .bounds import hamming_ball_volume
from .errors import BudgetExceeded, DimensionError, WeightTooLarge
from .gf import Field
from .vectors import check_vector


@dataclass(frozen=True)
class ErrorVector:
    """A noise vector together with its Hamming weight."""

    vector: tuple[int, ...]
    weight: int


def inject(
    field: Field,
    codeword: Sequence[int],
    weight: int,
    seed: int | random.Random = 0,
) -> tuple[int, ...]:
    """codeword + e for a seeded random e of exactly the given weight.

    Error support: ``weight`` distinct positions from the generator;
    error values: uniform over the q-1 nonzero field elements.
    """
    n = len(codeword)
    codeword = check_vector(codeword, field.q, n, "codeword")
    if not 0 <= weight <= n:
        raise WeightTooLarge(f"error weight {weight} outside [0, {n}]")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    y = list(codeword)
    for pos in rng.sample(range(n), weight):
        y[pos] = field.add(y[pos], rng.randrange(1, field.q))
    return tuple(y)


def enumerate_errors(
    n: int,
    t: int,
    q: int,
    budget: int = defaults.ERROR_ENUMERATION_BUDGET,
) -> Iterator[ErrorVector]:
    """Every vector of weight <= min(t, n) in F_q^n, exactly once.

    Ordered by (weight, support lexicographic, value lexicographic); the
    stream length equals the radius-min(t, n) Hamming ball volume.
    """
    if n < 1 or t < 0 or q < 2:
        raise DimensionError(f"need n >= 1, t >= 0, q >= 2; got ({n}, {t}, {q})")
    w_max = min(t, n)
    count = hamming_ball_volume(n, w_max, q)
    if count > budget:
        raise BudgetExceeded(
            f"error enumeration needs {count} vectors, budget is {budget}",
            required=count,
            budget=budget,
            unit="vectors",
        )
    for w in range(w_max + 1):
        for support in combinations(range(n), w):
            for values in product(range(1, q), repeat=w):
                vec = [0] * n
                for pos, val in zip(support, values):
                    vec[pos] = val
                yield ErrorVector(vector=tuple(vec), weight=w)
