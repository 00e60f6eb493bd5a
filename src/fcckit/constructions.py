"""Concrete systematic encoders with designed distance 2t+1.

Three families: a systematic MDS (Reed-Solomon) code for fields with
q >= k + 2t (redundancy exactly 2t, the optimum), a shortened
narrow-sense binary BCH code (redundancy at most m * t, where 2^m - 1 is
the unshortened length; its generator is built from the 2-cyclotomic
cosets that ``bounds`` counts), and the two-valued parity scheme that
protects the nonzero-message indicator with the bare-minimum 2t
redundancy at any alphabet size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor

from . import defaults
from .bounds import bch_cosets, bch_extension_degree
from .codes import GeneratorMatrix
from .errors import BudgetExceeded, DimensionError, FieldTooSmall
from .fcc import FccScheme
from .gf import Field


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


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
        """The linear scheme of ``generator``, built once per report."""
        return FccScheme.linear(self.generator)


def _check_kt(k: int, t: int) -> None:
    if k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")
    if t < 1:
        raise DimensionError(f"t must be at least 1, got {t}")


def rs_systematic(q: int, k: int, t: int) -> ConstructionReport:
    """Systematic [k+2t, k, 2t+1]_q MDS generator [I_k | P].

    Messages are the values of a degree-<k polynomial at the field
    elements x_0..x_{k-1} (indices 0..k-1); parity column j holds its value
    at x_{k+j}.  Row i is the Lagrange basis polynomial of x_i, so in
    closed form P[i][j] = prod over l != i, l < k of
    (x_{k+j} - x_l) / (x_i - x_l).  Needs q >= k + 2t so that all n
    evaluation points are distinct.
    """
    _check_kt(k, t)
    field = Field(q)
    n = k + 2 * t
    if q < n:
        raise FieldTooSmall(f"systematic MDS needs q >= k + 2t = {n}, got q = {q}")
    sub, mul = field.sub, field.mul
    zeros = (0,) * k
    rows = []
    for i in range(k):
        others = [x for x in range(k) if x != i]
        scale = field.inv(reduce(mul, (sub(i, x) for x in others), 1))
        parity = tuple(
            reduce(mul, (sub(y, x) for x in others), scale) for y in range(k, n)
        )
        rows.append(zeros[:i] + (1,) + zeros[i + 1 :] + parity)
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


def bch_systematic(k: int, t: int) -> ConstructionReport:
    """Shortened systematic binary BCH code of dimension k, distance >= 2t+1.

    Takes the smallest m with 2^m - 1 >= k + m*t, builds the narrow-sense
    generator g = lcm of the minimal polynomials of alpha^1..alpha^2t over
    GF(2^m), one per 2-cyclotomic coset of ``bounds.bch_cosets``, and
    shortens the length-(2^m - 1) cyclic code to k message positions.
    Parity of u is -(u(x) * x^r mod g) with r = deg g, so the codeword
    layout stays (message, parity).
    """
    _check_kt(k, t)
    m = bch_extension_degree(k, t)
    cap = defaults.BCH_DEGREE_CAP
    if m > cap:
        raise BudgetExceeded(
            f"BCH construction needs extension degree {m} > cap {cap}",
            required=m,
            budget=cap,
            unit="extension degree",
        )
    ext = Field(2**m)
    alpha = ext.primitive_element()
    # g as an F_2 bit mask, bit j for x^j.  Each coset's minimal
    # polynomial prod (x + alpha^j) is expanded over GF(2^m), where its
    # coefficients come out 0 or 1, and multiplied into g by a carry-less
    # shift-and-XOR product.
    g_mask = 1
    for coset in bch_cosets(k, t):
        mp = [1]
        for j in coset:
            root = ext.pow(alpha, j)
            mp = [a ^ ext.mul(root, b) for a, b in zip([0, *mp], [*mp, 0])]
        g_mask = reduce(xor, (g_mask << j for j, c in enumerate(mp) if c))
    r = g_mask.bit_length() - 1
    # Row i's parity is x^(r+i) mod g (over F_2, -1 = 1), as a bit mask.
    # Each remainder is the last one times x: an LFSR step that shifts up
    # and reduces by g when the x^r bit comes out.
    top = 1 << r
    rem = g_mask ^ top  # x^r mod g
    row_digits = f"0{k + r}b"
    rows = []
    for i in range(k):
        # the row e_i | parity as one n-bit word, bit j for symbol j,
        # written out low bit first and read as 0/1 bytes
        row = format(rem << k | 1 << i, row_digits)[::-1]
        rows.append(tuple(row.encode().translate(_BINARY_DIGITS)))
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
        generator=GeneratorMatrix(Field(2), rows),
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
