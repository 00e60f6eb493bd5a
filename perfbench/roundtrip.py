"""Save and reload through fcckit's text formats, as the CLI does between
``construct --out`` and ``verify --in``, with spans around each call."""

from __future__ import annotations

from harness import Tracer

from fcckit import (
    FunctionTable,
    parse_function_file,
    parse_scheme_file,
    serialize_function_file,
    serialize_scheme_file,
)


def scheme(tracer: Tracer, s):
    with tracer.span("formats.serialize", kind="scheme"):
        text = serialize_scheme_file(s)
    with tracer.span("formats.parse", kind="scheme"):
        return parse_scheme_file(text)


def function(tracer: Tracer, f: FunctionTable) -> FunctionTable:
    with tracer.span("formats.serialize", kind="function"):
        text = serialize_function_file(f)
    with tracer.span("formats.parse", kind="function"):
        return parse_function_file(text)
