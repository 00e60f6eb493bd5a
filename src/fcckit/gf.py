"""Exact arithmetic in F_q for prime and prime-power q.

Elements are canonical integer indices 0..q-1: the coefficient vector
(c_0, ..., c_{m-1}) of an extension-field element, coefficients of x^i
over F_p, read as the base-p numeral sum(c_i * p**i).  For prime fields
the index is the residue itself.  The representative modulus of F_{p^m}
is the monic irreducible polynomial of degree m whose index encoding is
smallest, which reproduces the familiar tables (x^2+x+1 for GF(4),
x^3+x+1 for GF(8), x^4+x+1 for GF(16), ...).

Multiplication in an extension field goes through discrete-log tables
built on first use.  Addition in F_{2^m} is XOR; in F_{p^m} with p odd it
uses Zech logarithms from the same tables: with alpha primitive and
Z(d) = log(1 + alpha^d), a + b = alpha^(log a + Z(log b - log a)) for
nonzero a, b, and Z(d) is undefined exactly where 1 + alpha^d = 0, i.e. at
d = (q-1)/2, since -1 = alpha^((q-1)/2).  Each Z(d) comes from one step
of the index encoding: 1 + x raises only the constant coefficient.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    DivisionByZero,
    FieldMismatch,
    InvalidOrder,
    ReducibleModulus,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_split(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, or raise InvalidOrder."""
    if q < 2:
        raise InvalidOrder(f"field order must be at least 2, got {q}")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1 or not is_prime(p):
        raise InvalidOrder(f"{q} is not a prime power")
    return p, m


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Field:
    """Finite field F_q with elements represented as indices 0..q-1.

    All arithmetic methods take and return plain ints.  Instances are
    immutable after construction and safe to share between threads.
    """

    __slots__ = ("q", "p", "m", "modulus", "_mod_mask", "_exp", "_log", "_zech", "_primitive")

    def __init__(self, q: int, modulus: Sequence[int] | None = None):
        p, m = prime_power_split(q)
        self.q = q
        self.p = p
        self.m = m
        if modulus is None:
            modulus = canonical_modulus(p, m) if m > 1 else (0, 1)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {m}, got coefficients {modulus}"
                )
            if m > 1 and not _is_irreducible(p, modulus):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        self._mod_mask = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else 0
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        self._primitive: int | None = None

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"Field({self.q})"
        return f"Field({self.q}, modulus={list(self.modulus)})"

    # -- element views -------------------------------------------------

    def check(self, a: int) -> int:
        if not (0 <= a < self.q):
            raise FieldMismatch(f"{a} is not an element index of {self!r}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of length m over F_p (low degree first)."""
        self.check(a)
        out = []
        for _ in range(self.m):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, coeffs: Iterable[int]) -> int:
        vec = list(coeffs)
        if len(vec) != self.m:
            raise DimensionError(f"expected {self.m} coefficients, got {len(vec)}")
        idx = 0
        for c in reversed(vec):
            idx = idx * self.p + (c % self.p)
        return idx

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        if self._zech is None:
            self._build_tables()
        log = self._log
        order = self.q - 1
        la = log[a]
        z = self._zech[(log[b] - la) % order]
        return 0 if z < 0 else self._exp[(la + z) % order]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or a == 0:
            return a
        if self._zech is None:
            self._build_tables()
        order = self.q - 1
        return self._exp[(self._log[a] + order // 2) % order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            self._build_tables()
        exp, log = self._exp, self._log
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; DivisionByZero for a = 0."""
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in {self!r}")
        self.check(a)
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is None:
            self._build_tables()
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- structure -------------------------------------------------------

    def primitive_element(self) -> int:
        """Smallest element index with multiplicative order q - 1: the
        generator the log tables are built from."""
        if self._primitive is None:
            self._build_tables()
        return self._primitive

    # -- internals -------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free product, used only while building the tables."""
        if self.p == 2:
            top = 1 << self.m
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self._mod_mask
            return r
        prod = [0] * (2 * self.m - 1)
        av, bv = self.coeffs(a), self.coeffs(b)
        for i, x in enumerate(av):
            if x:
                for j, y in enumerate(bv):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _poly_mod_prime(self.p, prod, self.modulus)
        return self.from_coeffs(rem + [0] * (self.m - len(rem)))

    def _pow_raw(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        # Discrete-log tables for extension fields (a prime field builds
        # them only for primitive_element); primitive element found by
        # scanning indices in canonical order.
        target = self.q - 1
        factors = _prime_factors(target)
        g = None
        for a in range(1, self.q):
            if all(self._pow_raw(a, target // prime) != 1 for prime in factors):
                g = a
                break
        exp = [1] * target
        log = [0] * self.q
        val = 1
        for i in range(target):
            exp[i] = val
            log[val] = i
            val = self._mul_raw(val, g)
        zech = None
        if self.p != 2:
            # 1 + alpha^i raises the constant coefficient, the low base-p
            # digit of the index; -1 where that sum is 0.
            p = self.p
            zech = [-1] * target
            for i, e in enumerate(exp):
                s = e - e % p + (e + 1) % p
                if s:
                    zech[i] = log[s]
        # _exp gates mul and inv, _zech gates odd-p add and neg, for
        # concurrent readers: set them last
        self._log = log
        self._exp = exp
        self._zech = zech
        self._primitive = g


def _poly_mod_prime(p: int, dividend: Sequence[int], divisor: Sequence[int]) -> list[int]:
    """Remainder of polynomial division over F_p (divisor monic)."""
    rem = [c % p for c in dividend]
    d = len(divisor) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(d):
                rem[i - d + j] = (rem[i - d + j] - c * divisor[j]) % p
    del rem[d:]
    return rem


def _is_irreducible(p: int, modulus: Sequence[int]) -> bool:
    """Trial division by every monic polynomial of degree <= m/2."""
    m = len(modulus) - 1
    if modulus[0] == 0:
        return m == 1  # divisible by x, so reducible unless it is x itself
    for deg in range(1, m // 2 + 1):
        for idx in range(p**deg):
            trial = []
            rest = idx
            for _ in range(deg):
                rest, c = divmod(rest, p)
                trial.append(c)
            trial.append(1)
            if not any(_poly_mod_prime(p, modulus, trial)):
                return False
    return True


@cache
def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over F_p with the smallest index
    encoding; searched once per (p, m), since every ``Field(p**m)`` asks."""
    for idx in range(p**m, 2 * p**m):
        coeffs = []
        rest = idx
        for _ in range(m + 1):
            rest, c = divmod(rest, p)
            coeffs.append(c)
        if _is_irreducible(p, coeffs):
            return tuple(coeffs)
    raise InvalidOrder(f"no irreducible polynomial of degree {m} over F_{p}")  # pragma: no cover


def minimal_poly(field: Field, beta: int) -> tuple[int, ...]:
    """Monic polynomial over F_p of least degree vanishing at beta, as its
    coefficients in F_p, lowest degree first (the last one is 1).

    Found as the first linear dependency among the powers 1, beta,
    beta^2, ... viewed as F_p-coordinate vectors, so the result is
    independent of any conjugacy-orbit bookkeeping.
    """
    field.check(beta)
    p, m = field.p, field.m
    # Row-reduced basis of the span of lower powers, with the combination
    # of original powers that produced each reduced row.
    basis: list[tuple[list[int], list[int], int]] = []  # (vector, combo, pivot)
    power = 1
    for j in range(m + 1):
        vec = list(field.coeffs(power))
        combo = [0] * (m + 1)
        combo[j] = 1
        for row_vec, row_combo, pivot in basis:
            c = vec[pivot]
            if c:
                for i in range(m):
                    vec[i] = (vec[i] - c * row_vec[i]) % p
                for i in range(m + 1):
                    combo[i] = (combo[i] - c * row_combo[i]) % p
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            return tuple(combo[: j + 1])
        inv = pow(vec[pivot], p - 2, p)
        vec = [(c * inv) % p for c in vec]
        combo = [(c * inv) % p for c in combo]
        basis.append((vec, combo, pivot))
        power = field.mul(power, beta)
    raise AssertionError("powers of beta cannot be independent beyond degree m")  # pragma: no cover
