"""Symbol-error channel: seeded exact-weight corruption.

Corruption is field addition y = c + e (not symbol substitution), with e
of exactly the requested weight; sweeping the weight from 0 to t covers
the whole "up to t errors" model deterministically.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import WeightTooLarge
from .gf import Field
from .vectors import check_vector


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
