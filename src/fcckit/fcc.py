"""Function-correcting core: function tables, systematic schemes, the
distance-condition verifier, and the exhaustive function-value decoder.

A scheme maps a message u to the codeword (u, p(u)); it protects a
function f against t symbol errors when every pair of messages with
different f-values lands at codeword distance >= 2t+1.  Verification and
decoding are exact and budget-guarded.  Both read the codewords in
message-rank order from one enumeration (the odometer of
``codes.iter_codewords`` for linear schemes); up to 65536 messages the
list is built once and kept on the scheme as its codebook, past that it
is streamed again on every scan.  Since d(c(u), c(v)) = wt(c(v - u))
for a linear scheme, one with no nonzero codeword of weight at most 2t
passes without comparing pairs; a linear scheme that has one, and every
table scheme, is verified pair by pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from . import defaults
from .codes import GeneratorMatrix, iter_codewords, linear_encode
from .errors import (
    BeyondRadius,
    BudgetExceeded,
    DimensionError,
    NotSystematic,
    UnknownFunction,
)
from .gf import Field, prime_power_split
from .vectors import (
    check_radius,
    check_vector,
    iter_messages,
    message_rank,
    messages_of_weight,
    unrank_message,
)

# Largest q^k whose codebook a scheme keeps.
_CODEBOOK_CAP = 65536


@dataclass(frozen=True)
class FunctionTable:
    """Explicit f: F_q^k -> labels, indexed by lexicographic message rank."""

    q: int
    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        prime_power_split(self.q)
        if self.k < 1:
            raise DimensionError(f"k must be at least 1, got {self.k}")
        expected = self.q**self.k
        if len(self.values) != expected:
            raise DimensionError(
                f"function table has {len(self.values)} entries, expected {expected}"
            )
        if any(v < 0 for v in self.values):
            raise DimensionError("function labels must be non-negative integers")

    @property
    def image_size(self) -> int:
        return len(set(self.values))

    def label(self, u: Sequence[int]) -> int:
        check_vector(u, self.q, self.k, "message")
        return self.values[message_rank(u, self.q)]


BUILTIN_NAMES = ("or", "constant", "identity", "hamming_weight", "linear", "threshold")


def builtin_function(name: str, q: int, k: int, aux=None) -> FunctionTable:
    """Named function families over F_q^k.

    ``linear`` takes a length-k coefficient vector as aux and labels each
    message by the field index of the dot product; ``threshold`` takes an
    integer aux and indicates Hamming weight >= aux.  The other families
    take no aux, and one given to them is rejected.  ``hamming_weight``,
    ``threshold`` and ``linear`` build their tables one digit at a time:
    the table over k - 1 symbols, extended by every last digit d.
    """
    prime_power_split(q)
    if k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")
    if aux is not None and name in ("or", "constant", "identity", "hamming_weight"):
        raise DimensionError(f"{name} takes no aux")
    total = q**k
    if name == "or":
        values = [0] + [1] * (total - 1)
    elif name == "constant":
        values = [0] * total
    elif name == "identity":
        values = range(total)
    elif name == "hamming_weight":
        values = _weight_table(q, k)
    elif name == "linear":
        if aux is None or len(tuple(aux)) != k:
            raise DimensionError(f"linear needs a length-{k} coefficient vector as aux")
        coeffs = check_vector(tuple(aux), q, k, "coefficient vector")
        f = Field(q)
        values = [0]
        for a in coeffs:
            # append one digit d to every message: the dot product v becomes
            # rows[v][d] = v + a*d
            rows = [[f.add(v, f.mul(a, d)) for d in range(q)] for v in range(q)]
            values = [x for v in values for x in rows[v]]
    elif name == "threshold":
        if aux is None or isinstance(aux, (tuple, list)) and len(aux) != 1:
            raise DimensionError("threshold needs a single integer aux")
        theta = int(aux[0]) if isinstance(aux, (tuple, list)) else int(aux)
        values = [1 if w >= theta else 0 for w in _weight_table(q, k)]
    else:
        raise UnknownFunction(f"no built-in function named {name!r}")
    return FunctionTable(q=q, k=k, values=tuple(values))


def _weight_table(q: int, k: int) -> list[int]:
    """Hamming weight of every message of F_q^k in rank order, built digit
    by digit: appending the digit d to a message adds (d != 0)."""
    weights = [0]
    for _ in range(k):
        weights = [w + (d != 0) for w in weights for d in range(q)]
    return weights


class FccScheme:
    """Systematic encoder u -> (u, p(u)); linear or explicit-table parity.

    The linear variant wraps a [I_k | P] generator; the tabular variant
    stores one length-r parity vector per message rank.
    """

    __slots__ = ("kind", "field", "q", "k", "r", "generator", "parity_table", "_codebook")

    def __init__(
        self,
        kind: str,
        field: Field,
        k: int,
        r: int,
        generator: GeneratorMatrix | None = None,
        parity_table: tuple[tuple[int, ...], ...] | None = None,
    ):
        self.kind = kind
        self.field = field
        self.q = field.q
        self.k = k
        self.r = r
        self.generator = generator
        self.parity_table = parity_table
        self._codebook: list[tuple[int, ...]] | None = None

    @classmethod
    def linear(cls, generator: GeneratorMatrix) -> "FccScheme":
        if not generator.is_systematic():
            raise NotSystematic("linear schemes need an [I_k | P] generator")
        return cls(
            kind="linear",
            field=generator.field,
            k=generator.k,
            r=generator.n - generator.k,
            generator=generator,
        )

    @classmethod
    def tabular(cls, q: int, k: int, parity_rows: Sequence[Sequence[int]]) -> "FccScheme":
        field = Field(q)
        if len(parity_rows) != q**k:
            raise DimensionError(
                f"parity table has {len(parity_rows)} rows, expected {q**k}"
            )
        r = len(parity_rows[0]) if parity_rows else 0
        table = tuple(
            check_vector(row, q, r, "parity row") for row in parity_rows
        )
        return cls(kind="table", field=field, k=k, r=r, parity_table=table)

    @property
    def n(self) -> int:
        return self.k + self.r

    def parity(self, u: Sequence[int]) -> tuple[int, ...]:
        u = check_vector(u, self.q, self.k, "message")
        if self.kind == "table":
            return self.parity_table[message_rank(u, self.q)]
        return linear_encode(self.generator, u)[self.k :]

    def __repr__(self) -> str:
        return f"FccScheme({self.kind}, q={self.q}, k={self.k}, r={self.r})"


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the pairwise distance-condition check."""

    ok: bool
    violating_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    distance: int | None
    pairs_checked: int


@dataclass(frozen=True)
class DecodeOutcome:
    """Function value recovered from a received vector."""

    label: int
    distance: int
    within_radius: bool


def fcc_encode(scheme: FccScheme, u: Sequence[int]) -> tuple[int, ...]:
    """Codeword (u, p(u)) of length k + r."""
    u = check_vector(u, scheme.q, scheme.k, "message")
    return u + scheme.parity(u)


def _codewords(scheme: FccScheme) -> Iterable[Sequence[int]]:
    """Codewords (u, p(u)) in message-rank order.

    Up to _CODEBOOK_CAP messages this is the scheme's codebook, a list of
    tuples built on first use.  Past the cap it is a fresh stream that is
    not kept; for linear schemes it yields one list updated in place.
    """
    if scheme._codebook is not None:
        return scheme._codebook
    if scheme.kind == "linear":
        stream: Iterable[Sequence[int]] = iter_codewords(scheme.generator)
    else:
        stream = (
            u + p for u, p in zip(iter_messages(scheme.q, scheme.k), scheme.parity_table)
        )
    if scheme.q**scheme.k > _CODEBOOK_CAP:
        return stream
    scheme._codebook = [tuple(cw) for cw in stream]
    return scheme._codebook


def _check_compatible(scheme: FccScheme, f: FunctionTable) -> None:
    if scheme.q != f.q or scheme.k != f.k:
        raise DimensionError(
            f"scheme is over (q={scheme.q}, k={scheme.k}) "
            f"but function over (q={f.q}, k={f.k})"
        )


def verify_fcc(
    scheme: FccScheme,
    f: FunctionTable,
    t: int,
    budget: int = defaults.ENUMERATION_BUDGET,
) -> VerificationResult:
    """Check d(c(u), c(v)) >= 2t+1 for every pair with f(u) != f(v).

    Reports the first violation in lexicographic (rank, rank) order;
    ``pairs_checked`` counts the pairs with different labels up to and
    including it, or all of them when the scheme passes.  A linear scheme
    with no nonzero codeword of weight below 2t+1 passes after one pass
    over its codewords, and ``pairs_checked`` is counted from the label
    counts; any other scheme compares every such pair.  Either way the
    budget bounds the q^k (q^k - 1) / 2 message pairs.
    """
    _check_compatible(scheme, f)
    check_radius(t)
    total = scheme.q**scheme.k
    pairs = total * (total - 1) // 2
    if pairs > budget:
        raise BudgetExceeded(
            f"verification needs {pairs} message pairs, budget is {budget}",
            required=pairs,
            budget=budget,
            unit="message pairs",
        )
    need = 2 * t + 1
    if scheme.kind == "linear" and _light_free(scheme, need):
        # d(c(u), c(v)) = wt(c(v - u)) >= need for every pair
        differing = (total * total - sum(c * c for c in Counter(f.values).values())) // 2
        return VerificationResult(
            ok=True, violating_pair=None, distance=None, pairs_checked=differing
        )
    return _verify_pairs(scheme, f.values, need)


def _verify_pairs(
    scheme: FccScheme, labels: Sequence[int], need: int
) -> VerificationResult:
    """Compare the codewords of every pair with different labels."""
    total = scheme.q**scheme.k
    k = scheme.k
    # tuple() copies only past the codebook cap, where the stream reuses one list
    words = [tuple(cw) for cw in _codewords(scheme)]
    checked = 0
    for i in range(total):
        li = labels[i]
        ci = words[i]
        for j in range(i + 1, total):
            if labels[j] == li:
                continue
            checked += 1
            d = 0
            for a, b in zip(ci, words[j]):
                if a != b:
                    d += 1
                    if d == need:
                        break
            if d < need:
                return VerificationResult(
                    ok=False,
                    violating_pair=(ci[:k], words[j][:k]),
                    distance=d,
                    pairs_checked=checked,
                )
    return VerificationResult(ok=True, violating_pair=None, distance=None, pairs_checked=checked)


def _light_free(scheme: FccScheme, need: int) -> bool:
    """True when no nonzero codeword of a linear scheme has weight below
    ``need``; stops at the first that has."""
    n = scheme.n
    return all(n - cw.count(0) >= need for cw in islice(_codewords(scheme), 1, None))


def fcc_decode(
    scheme: FccScheme,
    f: FunctionTable,
    t: int,
    y: Sequence[int],
    strict: bool = True,
    budget: int = defaults.ENUMERATION_BUDGET,
) -> DecodeOutcome:
    """Label of the nearest codeword to y (ties to the lowest rank).

    For a scheme that passes verification and at most t symbol errors the
    label equals f at the transmitted message.  In strict mode a nearest
    distance beyond t raises BeyondRadius instead of guessing.
    """
    _check_compatible(scheme, f)
    check_radius(t)
    y = check_vector(y, scheme.q, scheme.n, "received vector")
    total = scheme.q**scheme.k
    if total > budget:
        raise BudgetExceeded(
            f"decoding needs {total} codewords, budget is {budget}",
            required=total,
            budget=budget,
            unit="codewords",
        )
    best_rank = 0
    best_d = scheme.n + 1
    for rank, cw in enumerate(_codewords(scheme)):
        d = 0
        for a, b in zip(cw, y):
            if a != b:
                d += 1
                if d >= best_d:
                    break
        if d < best_d:
            best_rank, best_d = rank, d
            if d == 0:
                break
    within = best_d <= t
    if strict and not within:
        raise BeyondRadius(
            f"nearest codeword at distance {best_d} > t = {t}", distance=best_d
        )
    return DecodeOutcome(label=f.values[best_rank], distance=best_d, within_radius=within)


def find_critical_pair(
    f: FunctionTable, budget: int = defaults.ENUMERATION_BUDGET
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First (weight, lex)-ordered pair at Hamming distance 1 with
    different labels, or None when f is constant.

    Scans the weight shells outward from the all-zero message; a hit is
    guaranteed for every non-constant f because the shells chain any two
    messages through single-coordinate steps.  The shells are generated
    lazily, so the scan stops as soon as it finds the pair.
    """
    q, k = f.q, f.k
    total = q**k
    if total > budget:
        raise BudgetExceeded(
            f"critical-pair scan needs {total} messages, budget is {budget}",
            required=total,
            budget=budget,
            unit="messages",
        )
    values = f.values
    places = [q ** (k - 1 - c) for c in range(k)]
    # The partner of the first hit is one weight heavier: had u a partner
    # of its own weight, differing from it where u has x != 0, then u with
    # that symbol zeroed, earlier than both and adjacent to both, would
    # have hit first.  Raising a zero symbol of u grows the rank least at
    # the last coordinate, so the first partner found is the earliest.
    for w in range(k + 1):
        for u in messages_of_weight(q, k, w):
            rank = message_rank(u, q)
            label = values[rank]
            for c in range(k - 1, -1, -1):
                if u[c] == 0:
                    for val in range(1, q):
                        v = rank + val * places[c]
                        if values[v] != label:
                            return u, unrank_message(v, q, k)
    return None


def identity_scheme(q: int, k: int) -> FccScheme:
    """The r = 0 scheme c(u) = u."""
    return FccScheme.tabular(q, k, [()] * q**k)
