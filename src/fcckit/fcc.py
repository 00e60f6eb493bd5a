"""Function-correcting core: function tables, systematic schemes, the
distance-condition verifier, and the function-value decoder.

A scheme maps a message u to the codeword (u, p(u)); it protects a
function f against t symbol errors when every pair of messages with
different f-values lands at codeword distance >= 2t+1.  Verification and
decoding are exact and budget-guarded.  A codeword within distance s of a
received word y has its message within s of y[:k], so the decoder encodes
the messages of the ring at distance s = 0, 1, ... from y[:k] and stops
at the first ring whose radius reaches the nearest distance found; it
never enumerates the codewords.  Since d(c(u), c(v)) = wt(c(v - u)) for a
linear scheme, one passes for every f when ``codes.min_distance`` of its
generator is at least 2t+1, without comparing pairs.  A linear scheme
below that, and every table scheme, is verified one message at a time
by bitset rows over one parity table (the scheme's own, or u.P built one
message digit at a time for a linear scheme): an N-bit int (N = q^k)
holds the later messages with a different label, and the distance-layer
step of ``vectors.far_sets`` keeps those at distance >= 2t+1, symbol by
symbol, a whole row of pairs per int operation.  That is O(N n (2t+1))
operations on N-bit ints for n = k + r, and its masks take one N-bit int
per (column, symbol) and one per repeated label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import comb
from operator import ne, xor
from typing import Iterable, Sequence

from . import defaults
from .codes import GeneratorMatrix, linear_encode, min_distance
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
    check_rows,
    check_vector,
    digit_masks,
    far_sets,
    hamming_distance,
    iter_messages,
    message_rank,
    messages_at_distance,
    messages_of_weight,
    unrank_message,
    weight_table,
)

class FunctionTable:
    """f: F_q^k -> labels, indexed by lexicographic message rank.

    A table given by its labels, ``FunctionTable(q, k, values)``, stores
    them as ``bytes``, one byte per label, whenever every label is an int
    in 0..255, and as a tuple of ints otherwise, so tables given as a
    tuple, a list or bytes compare and hash equal.  A built-in
    (``builtin_function``) keeps its rule instead: ``label``,
    ``label_counts`` and ``image_size`` are closed forms, O(k) work per
    label, and ``values`` is built on its first read by the whole-table
    kernels, for the paths that need every label (the search, the
    bitset-row verify, the critical-pair scan and function files).
    Equality and hash are by labels either way.  Readers index, iterate,
    count or take a set of ``values``, which gives ints either way.
    """

    __slots__ = ("q", "k", "_values", "_rule")

    def __init__(self, q: int, k: int, values: Sequence[int]):
        _check_space(q, k)
        expected = q**k
        if len(values) != expected:
            raise DimensionError(
                f"function table has {len(values)} entries, expected {expected}"
            )
        self.q, self.k, self._rule = q, k, None
        self._values = _label_store(values)
        if type(self._values) is tuple and min(self._values) < 0:
            raise DimensionError("function labels must be non-negative integers")

    @property
    def values(self) -> bytes | tuple[int, ...]:
        if self._values is None:
            self._values = _label_store(self._rule.table())
        return self._values

    def label_counts(self) -> dict[int, int]:
        """The number of messages with each label."""
        if self._rule is not None:
            return self._rule.counts()
        return Counter(self._values)

    @property
    def image_size(self) -> int:
        rule = self._rule
        if rule is not None and rule.name == "identity":
            # q^k labels: no per-label count is needed to say so
            return self.q**self.k
        return len(self.label_counts())

    def label(self, u: Sequence[int]) -> int:
        u = check_vector(u, self.q, self.k, "message")
        if self._rule is not None:
            return self._rule.label(u)
        return self._values[message_rank(u, self.q)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return (self.q, self.k, self.values) == (other.q, other.k, other.values)

    def __hash__(self) -> int:
        return hash((self.q, self.k, self.values))

    def __repr__(self) -> str:
        if self._rule is not None:
            rule = self._rule
            return f"builtin_function({rule.name!r}, {self.q}, {self.k}, {rule.aux!r})"
        return f"FunctionTable(q={self.q}, k={self.k}, values={self._values!r})"


def _check_space(q: int, k: int) -> None:
    prime_power_split(q)
    if k < 1:
        raise DimensionError(f"k must be at least 1, got {k}")


def _label_store(values: Iterable[int]) -> bytes | tuple[int, ...]:
    """The labels as bytes when every one is an int in 0..255 (one pass
    stores and checks them), else as a tuple."""
    try:
        return bytes(values)
    except (TypeError, ValueError):
        return tuple(values)


BUILTIN_NAMES = ("or", "constant", "identity", "hamming_weight", "linear", "threshold")


@dataclass(frozen=True, slots=True)
class _Rule:
    """A built-in family over F_q^k in closed form.  ``aux`` is the
    coefficient tuple of ``linear``, the integer theta of ``threshold``
    and None for the other families."""

    name: str
    q: int
    k: int
    aux: tuple[int, ...] | int | None

    def label(self, u: tuple[int, ...]) -> int:
        name = self.name
        if name == "identity":
            return message_rank(u, self.q)
        if name == "linear":
            f = Field(self.q)
            acc = 0
            for a, x in zip(self.aux, u):
                acc = f.add(acc, f.mul(a, x))
            return acc
        weight = self.k - u.count(0)
        if name == "hamming_weight":
            return weight
        if name == "threshold":
            return int(weight >= self.aux)
        return int(weight > 0) if name == "or" else 0

    def counts(self) -> dict[int, int]:
        """Messages per label: C(k, w) (q-1)^w of weight w, and q^(k-1)
        per field element for a nonzero linear form, which is onto."""
        q, k, name = self.q, self.k, self.name
        total = q**k
        if name == "identity":
            return dict.fromkeys(range(total), 1)
        if name == "linear":
            return dict.fromkeys(range(q), total // q) if any(self.aux) else {0: total}
        shells = [comb(k, w) * (q - 1) ** w for w in range(k + 1)]
        if name == "hamming_weight":
            return dict(enumerate(shells))
        if name == "threshold":
            below = sum(shells[: max(self.aux, 0)])
        else:
            below = 1 if name == "or" else total
        return {v: c for v, c in ((0, below), (1, total - below)) if c}

    def table(self) -> Iterable[int]:
        """Every label in rank order, a whole table at a time.
        ``hamming_weight``, ``threshold`` and ``linear`` are built as
        bytes, one digit at a time, by ``bytes.translate``: the messages
        with leading digit d are rank block d, each the table over k - 1
        symbols with d's term added.  ``linear`` over q > 256, whose labels
        need not fit in a byte, does the same by whole-table maps over a
        list."""
        q, k, name = self.q, self.k, self.name
        total = q**k
        if name == "or":
            return b"\0" + b"\1" * (total - 1)
        if name == "constant":
            return bytes(total)
        if name == "identity":
            return range(total)
        if name == "hamming_weight":
            return weight_table(q, k)
        if name == "threshold":
            # weight w -> 1 exactly when w >= theta
            c = min(max(self.aux, 0), 256)
            return weight_table(q, k).translate(bytes(c) + b"\1" * (256 - c))
        f = Field(q)
        # prepend one digit d to every message: the dot product v becomes
        # shift[v] = v + a*d
        shifts = [
            [[f.add(v, f.mul(a, d)) for v in range(q)] for d in range(q)] for a in self.aux
        ]
        if q <= 256:
            # labels are field indices below q: each block is one translate
            values = b"\0"
            for rows in reversed(shifts):
                values = b"".join(values.translate(bytes(row) + bytes(256 - q)) for row in rows)
            return values
        values = [0]
        for rows in reversed(shifts):
            blocks = []
            for row in rows:
                blocks += map(row.__getitem__, values)
            values = blocks
        return values


def builtin_function(name: str, q: int, k: int, aux=None) -> FunctionTable:
    """Named function families over F_q^k, each kept as its rule.

    ``linear`` takes a length-k coefficient vector as aux and labels each
    message by the field index of the dot product; ``threshold`` takes an
    integer aux and indicates Hamming weight >= aux.  The other families
    take no aux, and one given to them is rejected.  No table is built
    here: labels and label counts come from the rule, and ``values`` is
    built on its first read (see ``FunctionTable``).
    """
    _check_space(q, k)
    if name not in BUILTIN_NAMES:
        raise UnknownFunction(f"no built-in function named {name!r}")
    if aux is not None and name in ("or", "constant", "identity", "hamming_weight"):
        raise DimensionError(f"{name} takes no aux")
    if name == "linear":
        if aux is None or len(tuple(aux)) != k:
            raise DimensionError(f"linear needs a length-{k} coefficient vector as aux")
        aux = check_vector(tuple(aux), q, k, "coefficient vector")
    elif name == "threshold":
        if aux is None or isinstance(aux, (tuple, list)) and len(aux) != 1:
            raise DimensionError("threshold needs a single integer aux")
        aux = int(aux[0]) if isinstance(aux, (tuple, list)) else int(aux)
    f = FunctionTable.__new__(FunctionTable)
    f.q, f.k, f._values, f._rule = q, k, None, _Rule(name, q, k, aux)
    return f


class FccScheme:
    """Systematic encoder u -> (u, p(u)); linear or explicit-table parity.

    The linear variant wraps a [I_k | P] generator; the tabular variant
    stores one length-r parity vector per message rank.
    """

    __slots__ = ("kind", "field", "q", "k", "r", "generator", "parity_table")

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
        table = check_rows(parity_rows, q, r, "parity row")
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


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """Outcome of the pairwise distance-condition check."""

    ok: bool
    violating_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    distance: int | None
    pairs_checked: int


@dataclass(frozen=True, slots=True)
class DecodeOutcome:
    """Function value recovered from a received vector."""

    label: int
    distance: int
    within_radius: bool


def fcc_encode(scheme: FccScheme, u: Sequence[int]) -> tuple[int, ...]:
    """Codeword (u, p(u)) of length k + r."""
    u = check_vector(u, scheme.q, scheme.k, "message")
    return u + scheme.parity(u)


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
    passes when ``min_distance`` of its generator is at least 2t+1, and
    ``pairs_checked`` is then counted from the label counts; any other
    scheme checks every such pair over one parity table, a bitset row per
    message (``_verify_pairs``: O(q^k n (2t+1)) operations on q^k-bit
    ints).  Either way the budget bounds the q^k (q^k - 1) / 2 message
    pairs, the unit of the work a pair-by-pair check would do.
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
    # the pair gate above has run: budget=total keeps min_distance's
    # q^k-codeword gate from refusing with a different message
    if scheme.kind == "linear" and min_distance(scheme.generator, budget=total) >= need:
        # d(c(u), c(v)) = wt(c(v - u)) >= need for every pair
        counts = f.label_counts().values()
        differing = (total * total - sum(c * c for c in counts)) // 2
        return VerificationResult(
            ok=True, violating_pair=None, distance=None, pairs_checked=differing
        )
    return _verify_pairs(scheme, f.values, need)


def _verify_pairs(
    scheme: FccScheme, labels: Sequence[int], need: int
) -> VerificationResult:
    """Check every pair with different labels, one bitset row per message.

    Bit j of an N-bit int (N = q^k) stands for rank j.  Row i starts from
    ``cand``, the later ranks whose label differs from i's (a row without
    any is skipped), and runs ``far_sets`` over the n = k + r symbols of
    c_i; ``cand`` less the ranks it leaves at distance >= need are the
    row's violations, and the lowest is the first in (rank, rank) order.
    Only that pair's distance is computed, and ``pairs_checked`` is the
    popcount of every row before it and of its row up to it.

    A message symbol's masks are the closed-form ``digit_masks``.  A
    parity symbol's are read off the parity table written as one string,
    and a repeated label's off the labels written the same way, each mask
    on first use, so a verify that fails in its first rows builds few.
    Cost: O(N n need) operations on N-bit ints; memory: one mask per
    (column, symbol) and one per repeated label.
    """
    q, k, r = scheme.q, scheme.k, scheme.r
    ones = (1 << q**k) - 1
    rows = _parity_rows(scheme)
    # every parity symbol as one character, highest rank first: column c
    # is every r-th character
    parity = _text(chain.from_iterable(reversed(rows)))
    same = digit_masks(q, k) + [_SymbolMasks(parity[c::r], q) for c in range(r)]
    counts = Counter(labels)
    # only a label met more than once needs a mask; the labels are written
    # as their indices in order of first appearance
    if len(counts) < len(labels):
        code = dict(zip(counts, range(len(counts))))
        by_label = _SymbolMasks(_text(map(code.__getitem__, reversed(labels))), len(code))
    checked = 0
    later = ones
    for i, (u, p) in enumerate(zip(iter_messages(q, k), rows)):
        later ^= 1 << i
        label = labels[i]
        cand = later & ~by_label[code[label]] if counts[label] > 1 else later
        if not cand:
            continue
        close = cand ^ far_sets(same, u + p, need, ones, cand)[need]
        if close:
            j = (close & -close).bit_length() - 1
            v = unrank_message(j, q, k)
            return VerificationResult(
                ok=False,
                violating_pair=(u, v),
                distance=hamming_distance(u + p, v + rows[j]),
                pairs_checked=checked + (cand & ((2 << j) - 1)).bit_count(),
            )
        checked += cand.bit_count()
    return VerificationResult(ok=True, violating_pair=None, distance=None, pairs_checked=checked)


def _text(symbols: Iterable[int]) -> str:
    """The symbols as one string, symbol x as the character chr(x).  A
    symbol is a field element or a label's index among the labels, so it
    is below q^k, far below the 0x110000 code points for any verify within
    10^11 message pairs."""
    symbols = tuple(symbols)
    return "%c" * len(symbols) % symbols


class _SymbolMasks(dict):
    """``masks[v]``: the ranks whose character in ``text`` (one per rank,
    the highest rank first) is chr(v), for v below ``size``, as an int with
    bit j set for rank j.  Each mask is one ``str.translate``, on first use."""

    def __init__(self, text: str, size: int):
        super().__init__()
        self.text = text
        self.size = size

    def __missing__(self, v: int) -> int:
        table = ["0"] * self.size
        table[v] = "1"
        mask = self[v] = int(self.text.translate(table), 2)
        return mask


def _parity_rows(scheme: FccScheme) -> Sequence[tuple[int, ...]]:
    """Parity of every message in rank order: the table of a table scheme,
    or u.P for a linear one, built one digit at a time from the last
    generator row up (prepending the digit d of row i adds d times the
    parity part of row i to every row so far).  Addition in characteristic
    2 is XOR."""
    if scheme.kind == "table":
        return scheme.parity_table
    f, k = scheme.field, scheme.k
    add = xor if f.p == 2 else f.add
    rows = [(0,) * scheme.r]
    for g_row in reversed(scheme.generator.rows):
        scaled = [tuple(f.mul(d, x) for x in g_row[k:]) for d in range(1, scheme.q)]
        rows += [tuple(map(add, p, s)) for s in scaled for p in rows]
    return rows


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

    A codeword within distance s of y has its message within s of y[:k],
    so the decode encodes the messages at distance s = 0, 1, ..., k from
    y[:k] (``messages_at_distance``), ring by ring, keeping the least
    (distance, rank).  Once that distance is at most s, no message farther
    out can reach it, and the decode stops: it encodes the V(k, d, q)
    messages within the nearest distance d of y[:k] (capped at k), so
    V(k, t, q) when a codeword lies within t.  The rings 0..k hold all q^k
    messages, which the budget bounds.
    """
    _check_compatible(scheme, f)
    check_radius(t)
    y = check_vector(y, scheme.q, scheme.n, "received vector")
    q, k = scheme.q, scheme.k
    total = q**k
    if total > budget:
        raise BudgetExceeded(
            f"decoding needs {total} codewords, budget is {budget}",
            required=total,
            budget=budget,
            unit="codewords",
        )
    head, tail = y[:k], y[k:]
    best_d, best_rank, best_u = scheme.n + 1, 0, head
    for s in range(k + 1):
        for u in messages_at_distance(head, q, s):
            # the message part of (u, p(u)) differs from y in exactly s places
            d = s + sum(map(ne, scheme.parity(u), tail))
            if d <= best_d:
                rank = message_rank(u, q)
                if d < best_d or rank < best_rank:
                    best_d, best_rank, best_u = d, rank, u
        if best_d <= s:
            break
    within = best_d <= t
    if strict and not within:
        raise BeyondRadius(
            f"nearest codeword at distance {best_d} > t = {t}", distance=best_d
        )
    return DecodeOutcome(label=f.label(best_u), distance=best_d, within_radius=within)


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
