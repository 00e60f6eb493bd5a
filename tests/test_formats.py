"""FunctionFile and SchemeFile parsing, serialization, round-trips, and
the bulk parsers against per-line reference parsers."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import fcckit.codes
import fcckit.fcc
import fcckit.formats
from fcckit import vectors

from fcckit.codes import GeneratorMatrix
from fcckit.constructions import bch_systematic, or_scheme, rs_systematic
from fcckit.errors import FormatError, InvalidOrder, NotSystematic, RankDeficient
from fcckit.fcc import FccScheme, FunctionTable, builtin_function, fcc_encode
from fcckit.gf import Field
from fcckit.formats import (
    parse_function_file,
    parse_scheme_file,
    serialize_function_file,
    serialize_scheme_file,
)
from fcckit.vectors import iter_messages


class TestFunctionFile:
    def test_parse_identity_k1(self):
        f = parse_function_file("2 1\n0\n1\n")
        assert (f.q, f.k, tuple(f.values)) == (2, 1, (0, 1))

    def test_parse_or_k2(self):
        f = parse_function_file("2 2\n0\n1\n1\n1\n")
        assert tuple(f.values) == tuple(builtin_function("or", 2, 2).values)

    def test_missing_line(self):
        with pytest.raises(FormatError) as exc:
            parse_function_file("2 2\n0\n1\n1\n")
        assert exc.value.line == 5  # 4th value line never arrives

    def test_extra_line(self):
        with pytest.raises(FormatError) as exc:
            parse_function_file("2 1\n0\n1\n7\n")
        assert exc.value.line == 4

    def test_non_integer_token(self):
        with pytest.raises(FormatError) as exc:
            parse_function_file("2 1\n0\nx\n")
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(FormatError) as exc:
            parse_function_file("2\n0\n1\n")
        assert exc.value.line == 1

    def test_empty_file(self):
        with pytest.raises(FormatError):
            parse_function_file("")

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            parse_function_file("6 1\n0\n1\n2\n3\n4\n5\n")

    def test_trailing_whitespace_tolerated(self):
        f = parse_function_file("2 1 \n0  \n1\n\n  \n")
        assert tuple(f.values) == (0, 1)

    @pytest.mark.parametrize("name", ["or", "identity", "hamming_weight", "constant"])
    @pytest.mark.parametrize("q,k", [(2, 1), (2, 4), (3, 2), (4, 2), (5, 2), (7, 2)])
    def test_roundtrip_byte_identity(self, name, q, k):
        f = builtin_function(name, q, k)
        text = serialize_function_file(f)
        assert serialize_function_file(parse_function_file(text)) == text

    @pytest.mark.parametrize("q,k", [(2, 2), (3, 3), (7, 4)])
    def test_roundtrip_aux_builtins(self, q, k):
        for f in (
            builtin_function("linear", q, k, aux=(1,) * k),
            builtin_function("threshold", q, k, aux=2),
        ):
            text = serialize_function_file(f)
            assert serialize_function_file(parse_function_file(text)) == text

    @pytest.mark.parametrize(
        "q,k,labels",
        [
            (2, 2, (0, 9, 3, 3)),  # one digit each, read by one translate
            (2, 2, (0, 255, 10, 7)),  # bytes, several digits
            (2, 2, (256, 0, 1, 2)),  # a label past a byte: kept as ints
            (3, 1, (10**20, 5, 0)),
        ],
    )
    def test_roundtrip_byte_and_int_labels(self, q, k, labels):
        text = f"{q} {k}\n" + "".join(f"{x}\n" for x in labels)
        f = parse_function_file(text)
        assert tuple(f.values) == labels
        assert type(f.values) is (bytes if max(labels) <= 255 else tuple)
        assert f == FunctionTable(q, k, labels)
        assert serialize_function_file(f) == text


class TestSchemeFile:
    def test_linear_roundtrip(self):
        for scheme in (
            rs_systematic(7, 3, 2).scheme,
            rs_systematic(5, 2, 1).scheme,
            bch_systematic(4, 1).scheme,
        ):
            text = serialize_scheme_file(scheme)
            back = parse_scheme_file(text)
            assert back.kind == "linear"
            assert (back.q, back.k, back.r) == (scheme.q, scheme.k, scheme.r)
            assert serialize_scheme_file(back) == text
            for u in iter_messages(scheme.q, scheme.k):
                assert fcc_encode(back, u) == fcc_encode(scheme, u)

    def test_tabular_roundtrip(self):
        for scheme in (or_scheme(2, 3, 1), or_scheme(3, 2, 2), or_scheme(4, 2, 1)):
            text = serialize_scheme_file(scheme)
            back = parse_scheme_file(text)
            assert back.kind == "table"
            assert back.parity_table == scheme.parity_table
            assert serialize_scheme_file(back) == text

    def test_zero_redundancy_roundtrip(self):
        scheme = FccScheme.tabular(2, 2, [()] * 2**2)
        text = serialize_scheme_file(scheme)
        back = parse_scheme_file(text)
        assert back.r == 0
        assert serialize_scheme_file(back) == text

    def test_unknown_kind(self):
        with pytest.raises(FormatError) as exc:
            parse_scheme_file("cyclic 2 2 1\n0\n0\n1\n1\n")
        assert exc.value.line == 1

    def test_non_systematic_rows_rejected(self):
        text = "linear 2 2 1\n0 1 1\n1 0 1\n"
        with pytest.raises(FormatError) as exc:
            parse_scheme_file(text)
        assert exc.value.line == 2

    def test_row_width_checked(self):
        with pytest.raises(FormatError) as exc:
            parse_scheme_file("table 2 1 2\n0 0\n1\n")
        assert exc.value.line == 3

    def test_out_of_range_symbol(self):
        with pytest.raises(FormatError) as exc:
            parse_scheme_file("table 2 1 2\n0 0\n2 1\n")
        assert exc.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(FormatError) as exc:
            parse_scheme_file("table 2 2 1\n0\n1\n")
        assert exc.value.line == 4

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            parse_scheme_file("table 10 1 1\n" + "0\n" * 10)


def test_search_witness_roundtrips():
    from fcckit.search import exact_redundancy

    res = exact_redundancy(builtin_function("or", 2, 3), 1)
    text = serialize_scheme_file(res.scheme())
    back = parse_scheme_file(text)
    assert isinstance(back, FccScheme)
    assert back.parity_table == res.witness


@pytest.mark.parametrize(
    "scheme, rows",
    [(or_scheme(3, 4, 1), 3**4), (rs_systematic(7, 3, 2).scheme, 3)],
    ids=["table", "linear"],
)
def test_each_parsed_scheme_is_checked_once(monkeypatch, scheme, rows):
    # the parse leaves the element-index check to the scheme's own
    # constructor: one bulk check_rows over the parity table or the
    # generator, and no second Field
    checked = []

    def counting(body, *args, **kwargs):
        checked.append(len(body))
        return vectors.check_rows(body, *args, **kwargs)

    for module in (fcckit.fcc, fcckit.codes):
        monkeypatch.setattr(module, "check_rows", counting)
    fields = []
    monkeypatch.setattr(fcckit.fcc, "Field", lambda q: fields.append(q) or Field(q))
    monkeypatch.setattr(fcckit.formats, "Field", lambda q: fields.append(q) or Field(q))
    text = serialize_scheme_file(scheme)
    assert serialize_scheme_file(parse_scheme_file(text)) == text
    assert checked == [rows]
    assert fields == [scheme.q]


RELOADED_SCHEMES = {
    **{f"rs({q},3,2)": lambda q=q: rs_systematic(q, 3, 2).scheme for q in (7, 8, 9, 16, 17)},
    "bch(8,2)": lambda: bch_systematic(8, 2).scheme,
    "or(3,6,2)": lambda: or_scheme(3, 6, 2),
}


@pytest.mark.parametrize("name", list(RELOADED_SCHEMES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reloaded_scheme_keeps_its_field_and_codewords(name, data):
    # a file names the field by q alone, and Field(q) is the one field of
    # order q, so a saved or pickled scheme reloads onto the same instance
    scheme = RELOADED_SCHEMES[name]()
    symbol = st.integers(0, scheme.q - 1)
    u = tuple(data.draw(st.lists(symbol, min_size=scheme.k, max_size=scheme.k)))
    reloaded = parse_scheme_file(serialize_scheme_file(scheme)), pickle.loads(pickle.dumps(scheme))
    for back in reloaded:
        assert back.field is scheme.field
        assert fcc_encode(back, u) == fcc_encode(scheme, u)


# -- per-line reference parsers ---------------------------------------------


def ref_tokens(line, lineno, expected, what):
    tokens = line.split()
    if len(tokens) != expected:
        raise FormatError(f"{what}: expected {expected} value(s), got {len(tokens)}", lineno)
    out = []
    for tok in tokens:
        if not tok.isdecimal():
            raise FormatError(f"{what}: {tok!r} is not a non-negative integer", lineno)
        out.append(int(tok))
    return out


def ref_lines(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def ref_body_line(lines, index, total, what):
    lineno = index + 2
    if lineno - 1 >= len(lines):
        raise FormatError(f"missing {what} line {index + 1} of {total}", lineno)
    return lines[lineno - 1]


def ref_reject_extra(lines, used):
    for idx in range(used, len(lines)):
        if lines[idx].strip():
            raise FormatError("unexpected extra line", idx + 1)


def ref_parse_function_file(text):
    """Oracle: the function-file parser that reads one line at a time."""
    lines = ref_lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("empty function file", 1)
    q, k = ref_tokens(lines[0], 1, 2, "header")
    Field(q)
    expected = q**k
    values = []
    for i in range(expected):
        line = ref_body_line(lines, i, expected, "value")
        values.append(ref_tokens(line, i + 2, 1, "value")[0])
    ref_reject_extra(lines, expected + 1)
    return FunctionTable(q=q, k=k, values=tuple(values))


def ref_parse_scheme_file(text):
    """Oracle: the scheme-file parser that reads one line at a time."""
    lines = ref_lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("empty scheme file", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError("header must be 'kind q k r'", 1)
    kind = head[0]
    if kind not in ("linear", "table"):
        raise FormatError(f"unknown scheme kind {kind!r}", 1)
    q, k, r = ref_tokens(" ".join(head[1:]), 1, 3, "header")
    field = Field(q)
    body_rows = k if kind == "linear" else q**k
    width = k + r if kind == "linear" else r
    rows = []
    for i in range(body_rows):
        row = ref_tokens(ref_body_line(lines, i, body_rows, "row"), i + 2, width, "row")
        bad = next((x for x in row if x >= q), None)
        if bad is not None:
            raise FormatError(f"element index {bad} outside [0, {q})", i + 2)
        rows.append(tuple(row))
    ref_reject_extra(lines, body_rows + 1)
    if kind == "linear":
        try:
            return FccScheme.linear(GeneratorMatrix(field, rows))
        except (NotSystematic, RankDeficient) as exc:
            raise FormatError(str(exc), 2) from exc
    return FccScheme.tabular(q, k, rows)


def outcome(parse, text):
    """What a parse returns, as comparable values, or the error it raises
    (type, text and line)."""
    try:
        got = parse(text)
    except Exception as exc:  # the reference and the parser must agree on any error
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(got, FunctionTable):
        return ("function", got)
    return ("scheme", got.kind, got.field, got.k, got.r,
            got.generator.rows if got.generator else None, got.parity_table)


# Faults a hand-edited file may carry, each applied to one body line.
LINE_FAULTS = ("extra token", "blank", "non-decimal", "superscript", "negative", "plus",
               "underscore", "missing", "extra line", "bad header", "short row", "out of range")
BAD_VALUES = {"blank": "", "non-decimal": "x", "superscript": "\u00b2", "negative": "-1",
              "plus": "+1", "underscore": "1_0"}
PADDING = ("", " ", "  ", "\t", "\r", "\x0b", "\xa0 ")


def render(data, header, body, q):
    """The file text with trailing whitespace (a short drawn cycle of pads)
    and, maybe, one fault."""
    pads = data.draw(st.lists(st.sampled_from(PADDING), min_size=1, max_size=4), label="pads")
    fault = data.draw(st.sampled_from((None,) * 4 + LINE_FAULTS), label="fault")
    at = data.draw(st.integers(0, max(len(body) - 1, 0)), label="line")
    body = list(body)
    if fault in ("extra token", "short row", "out of range") and body:
        tokens = body[at].split()
        if fault == "extra token":
            tokens.append("0")
        elif fault == "short row":
            tokens = tokens[:-1]
        elif tokens:
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = str(q)
        else:
            tokens = [str(q)]
        body[at] = " ".join(tokens)
    elif fault in BAD_VALUES and body:
        body[at] = BAD_VALUES[fault]
    elif fault == "missing" and body:
        del body[at]
    elif fault == "extra line":
        body.insert(len(body) - data.draw(st.integers(0, 1)), "7")
    elif fault == "bad header":
        header = data.draw(st.sampled_from(("2", "x y", "2 1 1", "table 2 1", "cyclic 2 1 1", "")))
    lines = [header] + body
    text = "\n".join(line + pads[i % len(pads)] for i, line in enumerate(lines)) + "\n"
    return text + data.draw(st.sampled_from(("", "\n", "  \n")), label="tail")


SMALL_CELLS = ((2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (7, 1),
               (8, 2), (9, 1))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_function_parser_matches_per_line_reference(data):
    q, k = data.draw(st.sampled_from(SMALL_CELLS), label="q, k")
    # single digits, several digits, and labels past a byte
    top = data.draw(st.sampled_from((9, 20, 300)), label="top")
    labels = data.draw(st.lists(st.integers(0, top), min_size=q**k, max_size=q**k), label="labels")
    text = render(data, f"{q} {k}", [str(v) for v in labels], q)
    assert outcome(parse_function_file, text) == outcome(ref_parse_function_file, text)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_scheme_parser_matches_per_line_reference(data):
    kind = data.draw(st.sampled_from(("linear", "table")), label="kind")
    q, k = data.draw(st.sampled_from(SMALL_CELLS), label="q, k")
    r = data.draw(st.integers(0 if kind == "table" else 1, 3), label="r")
    count = k if kind == "linear" else q**k
    flat = data.draw(
        st.lists(st.integers(0, q - 1), min_size=count * r, max_size=count * r), label="symbols"
    )
    rows = [tuple(flat[i * r : (i + 1) * r]) for i in range(count)]
    if kind == "linear":
        # a systematic generator, or now and then a dependent or non-systematic one
        rows = [(0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(rows)]
        if data.draw(st.integers(0, 5), label="spoil") == 0:
            rows[-1] = rows[0]
    body = [" ".join(map(str, row)) for row in rows]
    text = render(data, f"{kind} {q} {k} {r}", body, q)
    assert outcome(parse_scheme_file, text) == outcome(ref_parse_scheme_file, text)


@pytest.mark.parametrize("fault", LINE_FAULTS)
def test_each_fault_gives_the_reference_error(fault):
    """One fixed file per fault, so every fault is checked on every run."""
    body = ["0", "1", "1", "1"]
    texts = {
        "extra token": "2 2\n0\n1 0\n1\n1\n",
        "blank": "2 2\n0\n\n1\n1\n",
        "non-decimal": "2 2\n0\nx\n1\n1\n",
        "superscript": "2 2\n0\n\u00b2\n1\n1\n",
        "negative": "2 2\n0\n-1\n1\n1\n",
        "plus": "2 2\n0\n+1\n1\n1\n",
        "underscore": "2 2\n0\n1_0\n1\n1\n",
        "missing": "2 2\n0\n1\n1\n",
        "extra line": "2 2\n" + "\n".join(body) + "\n7\n",
        "bad header": "2\n" + "\n".join(body) + "\n",
    }
    schemes = {
        "short row": "table 2 1 2\n0 0\n1\n",
        "out of range": "table 3 1 2\n0 0\n1 2\n0 3\n",
    }
    if fault in texts:
        got = outcome(parse_function_file, texts[fault])
        assert got == outcome(ref_parse_function_file, texts[fault])
    else:
        got = outcome(parse_scheme_file, schemes[fault])
        assert got == outcome(ref_parse_scheme_file, schemes[fault])
    assert got[0] == "error" and got[1] is FormatError and got[3] > 0


@pytest.mark.parametrize("text", ["linear 2 0 1\n", "linear 2 0 1\n7\n"], ids=["bare", "extra line"])
def test_linear_header_with_no_rows_gives_the_reference_error(text):
    # k = 0 leaves the generator without rows: its DimensionError, after
    # any extra line's FormatError, as the per-line reference raises them
    assert outcome(parse_scheme_file, text) == outcome(ref_parse_scheme_file, text)
