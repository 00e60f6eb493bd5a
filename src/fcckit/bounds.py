"""Closed-form and sphere-packing redundancy bounds.

Logarithms are base 2 throughout.  Combinatorial sums use exact integer
arithmetic; only the binary upper-bound formula is real-valued, and it
is reported unrounded (plus a ceiling convenience) because the bound it
states is strict.  The constructive BCH redundancy is counted from
2-cyclotomic cosets, so no bound builds a field or a construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundUndefined, DimensionError
from .gf import prime_power_split
from .vectors import check_radius

LOG2_E = math.log2(math.e)


def lower_bound(image_size: int, t: int) -> int:
    """2t for any function taking at least two values, else 0."""
    if image_size < 1:
        raise DimensionError(f"image size must be at least 1, got {image_size}")
    check_radius(t)
    return 0 if image_size == 1 else 2 * t


def upper_bound_binary(k: int, t: int) -> float:
    """t * log2(2k) / (1 - (t/k) * log2(e)), the strict binary upper bound.

    Defined for k >= 2 with a positive denominator, i.e. k > t * log2(e).
    """
    if k < 2:
        raise BoundUndefined(f"binary upper bound needs k >= 2, got k = {k}")
    denom = 1.0 - (t / k) * LOG2_E
    if denom <= 0.0:
        raise BoundUndefined(
            f"binary upper bound needs k > t*log2(e) = {t * LOG2_E:.6f}, got k = {k}"
        )
    return t * math.log2(2 * k) / denom


def bch_extension_degree(k: int, t: int) -> int:
    """Smallest m with 2^m - 1 >= k + m*t: the BCH length-selection rule."""
    m = 2
    while 2**m - 1 < k + m * t:
        m += 1
    return m


def bch_redundancy(k: int, t: int) -> int:
    """Redundancy of the shortened binary BCH code ``bch_systematic(k, t)``.

    Its generator is the product of the distinct minimal polynomials of
    alpha^1..alpha^2t over GF(2^m), and the minimal polynomial of alpha^i
    has one root per element of the 2-cyclotomic coset of i mod 2^m - 1
    (MacWilliams-Sloane, ch. 7).  So the degree is the size of the union
    of those cosets, counted without building GF(2^m).
    """
    if k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")
    if t < 1:
        raise DimensionError(f"t must be at least 1, got {t}")
    n = 2 ** bch_extension_degree(k, t) - 1
    roots: set[int] = set()
    for i in range(1, 2 * t + 1):
        j = i
        while j not in roots:
            roots.add(j)
            j = 2 * j % n
    return len(roots)


def hamming_ball_volume(n: int, t: int, q: int) -> int:
    """Number of vectors within Hamming distance t of a point in F_q^n."""
    return sum(math.comb(n, j) * (q - 1) ** j for j in range(min(t, n) + 1))


def sphere_packing_min_r(q: int, k: int, t: int) -> int:
    """Smallest r with q^r >= volume of a radius-t ball in F_q^(k+r)."""
    if q < 2 or k < 1 or t < 0:
        raise DimensionError(f"need q >= 2, k >= 1, t >= 0; got ({q}, {k}, {t})")
    r = 0
    while q**r < hamming_ball_volume(k + r, t, q):
        r += 1
    return r


def mds_equality(q: int, k: int, t: int) -> bool:
    """True iff q >= k + 2t, the regime where redundancy exactly 2t is known."""
    prime_power_split(q)
    return q >= k + 2 * t


@dataclass(frozen=True, slots=True)
class BoundReport:
    """All bounds for one (q, k, t, image_size) cell.

    ``upper_binary`` is proven only for q = 2; for other fields the same
    expression is conjectural and ``upper_is_conjectured`` says so.
    """

    q: int
    k: int
    t: int
    image_size: int
    lower: int
    upper_binary: float | None
    upper_binary_ceil: int | None
    bch_constructive: int | None
    sphere_packing_r: int
    mds_equality: bool
    upper_is_conjectured: bool


def report(q: int, k: int, t: int, image_size: int = 2) -> BoundReport:
    """Assemble every applicable bound; construction-backed entries only
    where the construction applies (BCH is binary-only).  None of them
    builds a code, so k may be far past the BCH construction's degree cap."""
    try:
        upper = upper_bound_binary(k, t)
        upper_ceil = math.ceil(upper)
    except BoundUndefined:
        upper = None
        upper_ceil = None
    bch_r = bch_redundancy(k, t) if q == 2 and t >= 1 else None
    return BoundReport(
        q=q,
        k=k,
        t=t,
        image_size=image_size,
        lower=lower_bound(image_size, t),
        upper_binary=upper,
        upper_binary_ceil=upper_ceil,
        bch_constructive=bch_r,
        sphere_packing_r=sphere_packing_min_r(q, k, t),
        mds_equality=mds_equality(q, k, t),
        upper_is_conjectured=q != 2,
    )
