"""Concrete systematic encoders with designed distance 2t+1.

Three families: an interpolation-based systematic MDS code for fields
with q >= k + 2t (redundancy exactly 2t, the optimum), a shortened
narrow-sense binary BCH code (redundancy at most t * log2(n+1)), and the
two-valued parity scheme that protects the nonzero-message indicator
with the bare-minimum 2t redundancy at any alphabet size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import defaults
from .bounds import bch_extension_degree
from .codes import GeneratorMatrix
from .errors import BudgetExceeded, DimensionError, FieldTooSmall
from .fcc import FccScheme
from .gf import Field, Polynomial, lagrange_interpolate, minimal_poly, poly_eval


@dataclass(frozen=True)
class ConstructionReport:
    """A built encoder plus its parameters and claimed distance."""

    name: str
    q: int
    k: int
    t: int
    n: int
    r: int
    claimed_distance: int
    generator: GeneratorMatrix

    @cached_property
    def scheme(self) -> FccScheme:
        """The linear scheme of ``generator``, built once so that its
        codebook is filled once."""
        return FccScheme.linear(self.generator)


def _check_kt(k: int, t: int) -> None:
    if k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")
    if t < 1:
        raise DimensionError(f"t must be at least 1, got {t}")


def rs_systematic(q: int, k: int, t: int) -> ConstructionReport:
    """Systematic [k+2t, k, 2t+1]_q MDS generator [I_k | P].

    Messages are the values of a degree-<k polynomial at the first k
    field elements; parity column j holds its value at element k+j.
    Needs q >= k + 2t so that all n evaluation points are distinct.
    """
    _check_kt(k, t)
    field = Field(q)
    n = k + 2 * t
    if q < n:
        raise FieldTooSmall(f"systematic MDS needs q >= k + 2t = {n}, got q = {q}")
    points = list(range(n))
    rows = []
    for i in range(k):
        support = [(points[j], 1 if j == i else 0) for j in range(k)]
        poly = lagrange_interpolate(field, support)
        parity = tuple(poly_eval(poly, points[k + j]) for j in range(2 * t))
        rows.append(tuple(1 if j == i else 0 for j in range(k)) + parity)
    return ConstructionReport(
        name="rs_systematic",
        q=q,
        k=k,
        t=t,
        n=n,
        r=2 * t,
        claimed_distance=2 * t + 1,
        generator=GeneratorMatrix(field, rows),
    )


def bch_systematic(
    k: int, t: int, degree_cap: int = defaults.BCH_DEGREE_CAP
) -> ConstructionReport:
    """Shortened systematic binary BCH code of dimension k, distance >= 2t+1.

    Takes the smallest m with 2^m - 1 >= k + m*t, builds the narrow-sense
    generator g = lcm of the minimal polynomials of alpha^1..alpha^2t over
    GF(2^m), and shortens the length-(2^m - 1) cyclic code to k message
    positions.  Parity of u is -(u(x) * x^r mod g) with r = deg g, so the
    codeword layout stays (message, parity).
    """
    _check_kt(k, t)
    m = bch_extension_degree(k, t)
    if m > degree_cap:
        raise BudgetExceeded(
            f"BCH construction needs extension degree {m} > cap {degree_cap}",
            required=m,
            budget=degree_cap,
            unit="extension degree",
        )
    ext = Field(2**m)
    alpha = ext.primitive_element()
    f2 = Field(2)
    g = Polynomial(f2, (1,))
    seen: set[tuple[int, ...]] = set()
    for i in range(1, 2 * t + 1):
        mp = minimal_poly(ext, ext.pow(alpha, i), 2)
        if mp.coeffs not in seen:
            seen.add(mp.coeffs)
            g = g * mp
    r = g.degree
    # Row i's parity is x^(r+i) mod g (over F_2, -1 = 1), as a bit mask with
    # bit j for x^j.  Each remainder is the last one times x: an LFSR step
    # that shifts up and reduces by g when the x^r bit comes out.
    g_mask = sum(c << j for j, c in enumerate(g.coeffs))
    top = 1 << r
    rem = g_mask ^ top  # x^r mod g
    zeros = (0,) * k
    rows = []
    for i in range(k):
        parity = tuple((rem >> j) & 1 for j in range(r))
        rows.append(zeros[:i] + (1,) + zeros[i + 1 :] + parity)
        rem <<= 1
        if rem & top:
            rem ^= g_mask
    return ConstructionReport(
        name="bch_systematic",
        q=2,
        k=k,
        t=t,
        n=k + r,
        r=r,
        claimed_distance=2 * t + 1,
        generator=GeneratorMatrix(f2, rows),
    )


def or_scheme(q: int, k: int, t: int) -> FccScheme:
    """Tabular scheme with parity 0..0 for the zero message, 1..1 otherwise.

    Protects the nonzero-message indicator with r = 2t: any two messages
    with different indicator values differ in all 2t parity symbols plus
    at least one message symbol.  Works over any alphabet size.
    """
    _check_kt(k, t)
    zero = (0,) * (2 * t)
    ones = (1,) * (2 * t)
    rows = [zero] + [ones] * (q**k - 1)
    return FccScheme.tabular(q, k, rows)
