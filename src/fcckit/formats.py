"""Plain-text serialization of function tables and schemes.

FunctionFile: line 1 is "q k"; then q^k lines, one non-negative label
per line, in lexicographic message order (leftmost coordinate most
significant).

SchemeFile: line 1 is "kind q k r" with kind in {linear, table}.  A
linear file continues with the k generator rows (k+r space-separated
element indices each, leading identity block required); a table file
continues with q^k parity rows of r indices in message order.

Field elements are always written as canonical integer indices, so the
formats are identical for prime and extension fields.  Serialization is
deterministic and both formats round-trip byte-identically (parsers
tolerate trailing whitespace).  FormatError line numbers are 1-based
file lines; a truncated file reports the first missing line.

Both directions handle a whole body at once with builtins rather than
one line at a time: a function file is written by one ``%`` format and
read by one ``isdecimal`` pass and ``map(int, ...)``, or by one
``bytes.translate`` when every label is a single digit (the table stores
its labels one byte each whenever they fit, see ``FunctionTable``); a
scheme body's row widths are checked as one set, and its element indices
once, by the bulk ``check_rows`` of the scheme's own constructor.  The
formats are unchanged, and so is every error: only when a bulk check
fails is the body walked line by line, up to its first bad or missing
line, whose message and line number it raises.
"""

from __future__ import annotations

from typing import NoReturn

from .codes import GeneratorMatrix
from .errors import DimensionError, FormatError, NotSystematic, RankDeficient
from .fcc import FccScheme, FunctionTable
from .gf import Field, prime_power_split

_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _int_tokens(line: str, lineno: int, expected: int, what: str) -> list[int]:
    tokens = line.split()
    if len(tokens) != expected:
        raise FormatError(
            f"{what}: expected {expected} value(s), got {len(tokens)}", lineno
        )
    out = []
    for tok in tokens:
        if not tok.isdecimal():
            raise FormatError(f"{what}: {tok!r} is not a non-negative integer", lineno)
        out.append(int(tok))
    return out


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _body_line(lines: list[str], index: int, total: int, what: str) -> str:
    """Body line ``index`` (0-based, file line index+2) or a missing-line error."""
    lineno = index + 2
    if lineno - 1 >= len(lines):
        raise FormatError(f"missing {what} line {index + 1} of {total}", lineno)
    return lines[lineno - 1]


def _raise_first_bad(
    lines: list[str], total: int, width: int, what: str, q: int | None = None
) -> NoReturn:
    """Raise the FormatError of the first bad or missing body line (width
    tokens each, element indices below q when q is given).  Called only
    once a bulk check has failed."""
    for i in range(total):
        row = _int_tokens(_body_line(lines, i, total, what), i + 2, width, what)
        if q is not None:
            bad = next((x for x in row if x >= q), None)
            if bad is not None:
                raise FormatError(f"element index {bad} outside [0, {q})", i + 2)
    raise AssertionError(f"bulk check rejected {what} lines that parse one by one")


def _reject_extra(lines: list[str], used: int) -> None:
    for idx in range(used, len(lines)):
        if lines[idx].strip():
            raise FormatError("unexpected extra line", idx + 1)


def serialize_function_file(f: FunctionTable) -> str:
    # one format call writes every label: half the time of str() per label
    values = tuple(f.values)
    return f"{f.q} {f.k}\n" + "%d\n" * len(values) % values


def parse_function_file(text: str) -> FunctionTable:
    lines = _split_lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("empty function file", 1)
    q, k = _int_tokens(lines[0], 1, 2, "header")
    prime_power_split(q)  # InvalidOrder for non-prime-power q
    expected = q**k
    body = lines[1 : expected + 1]
    if len(body) < expected or not all(map(str.isdecimal, body)):
        body = list(map(str.strip, body))  # a label line may carry trailing whitespace
        if len(body) < expected or not all(map(str.isdecimal, body)):
            _raise_first_bad(lines, expected, 1, "value")
    _reject_extra(lines, expected + 1)
    joined = "".join(body)
    if len(joined) == expected and joined.isascii():
        # every label is one ASCII digit: one translate reads them all
        values = joined.encode().translate(_DIGIT_VALUES)
    else:
        values = list(map(int, body))
    return FunctionTable(q=q, k=k, values=values)


def serialize_scheme_file(scheme: FccScheme) -> str:
    out = [f"{scheme.kind} {scheme.q} {scheme.k} {scheme.r}"]
    if scheme.kind == "linear":
        rows = scheme.generator.rows
    else:
        rows = scheme.parity_table
    names = list(map(str, range(scheme.q)))  # every symbol is below q
    out.extend(" ".join(map(names.__getitem__, row)) for row in rows)
    return "\n".join(out) + "\n"


def parse_scheme_file(text: str) -> FccScheme:
    lines = _split_lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("empty scheme file", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError("header must be 'kind q k r'", 1)
    kind = head[0]
    if kind not in ("linear", "table"):
        raise FormatError(f"unknown scheme kind {kind!r}", 1)
    q, k, r = _int_tokens(" ".join(head[1:]), 1, 3, "header")
    prime_power_split(q)  # InvalidOrder for non-prime-power q
    body_rows = k if kind == "linear" else q**k
    width = k + r if kind == "linear" else r
    body = lines[1 : body_rows + 1]
    # each line's token list is dropped once counted and the symbols come
    # from one joined string: a list kept per row would make the cyclic
    # garbage collector walk every row while the rows are built
    symbols = " ".join(body).split()
    if not (
        len(body) == body_rows
        and set(map(len, map(str.split, body))) <= {width}
        and all(map(str.isdecimal, symbols))
    ):
        _raise_first_bad(lines, body_rows, width, "row", q)
    # cut the flat values into rows of width symbols
    rows = list(zip(*[iter(map(int, symbols))] * width)) if width else [()] * body_rows
    # the scheme's own constructor checks the element indices, once; its
    # errors keep the per-line order: a bad index, an extra line, then a
    # bad generator
    try:
        if kind == "linear":
            scheme = FccScheme.linear(GeneratorMatrix(Field(q), rows))
        else:
            scheme = FccScheme.tabular(q, k, rows)
    except DimensionError:
        if not rows:  # a linear header with k = 0 has no generator rows
            _reject_extra(lines, body_rows + 1)
            raise
        _raise_first_bad(lines, body_rows, width, "row", q)
    except (NotSystematic, RankDeficient) as exc:
        _reject_extra(lines, body_rows + 1)
        raise FormatError(str(exc), 2) from exc
    _reject_extra(lines, body_rows + 1)
    return scheme
