"""The validators skip only what cannot fail.

``validate_trace_lines`` looks for ``wall_*`` keys only in lines that
spell ``wall_`` or hold a ``\\u`` escape; ``validate_spans`` parses only
lines that spell ``span.`` or hold one.  For any stream — generated
events of every kind, escaped keys and kinds, blank, truncated and
non-JSON lines, non-numeric wall fields, v1–v4 and unknown headers —
both must report exactly what the references in ``tests/oracles.py``,
which parse every line and look at every key, report.  The new
``hops_at`` problems are the only ones the references cannot know.
"""

import json
import os
import re
import tempfile

import pytest

from repro.obs import (validate_span_lines, validate_spans, validate_trace,
                       validate_trace_lines)

from tests.oracles import (reference_validate_span_lines,
                           reference_validate_trace_lines)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

_HOPS_AT_PROBLEM = re.compile(
    r"line \d+: ('hops_at' is not an int|hops_at .+ names no earlier "
    r"forward event listing hops)$")

_KINDS = ("run.start", "run.end", "forward", "span.start", "span.end",
          "probe.rtt", "")
_SCHEMAS = (None, "repro.trace/v1", "repro.trace/v2", "repro.trace/v3",
            "repro.trace/v4", "repro.trace/v9")
_IDS = st.one_of(st.sampled_from(["s1", "s2", "t1", "t2"]),
                 st.integers(0, 2))
_NUMBER_OR_NOT = st.one_of(st.integers(-2, 2), st.floats(-1e3, 1e3),
                           st.sampled_from(["s", "é", None, True, [1]]))
_FIELDS = {
    "t": _NUMBER_OR_NOT,
    "context": st.sampled_from([{}, {"seed": 7}, [], "c"]),
    "schema": st.sampled_from(_SCHEMAS),
    "span_id": _IDS, "trace_id": _IDS, "parent_id": _IDS,
    "name": st.sampled_from(["forward", "fault.epoch", "spän", 3]),
    "wall_ms": _NUMBER_OR_NOT, "wall_x": _NUMBER_OR_NOT,
    "wallet": st.just("not a wall field"),
    "hops": st.sampled_from([["a[AS1] deliver"], "x"]),
    "hops_at": st.one_of(st.integers(0, 6), st.just("1")),
}
_GARBAGE = ("", "   ", "not json", "[1, 2]", '"span.start"', "7", "null",
            '{"kind":"span.start"', '{"kind": "span.end",}',
            '\ufeff{"kind":"e","seq":0}')


def _escape(line, needle, index):
    """*line* with character *index* of the first *needle* written as a
    ``\\u`` escape (still the same JSON)."""
    if needle not in line:
        return line
    char = needle[index]
    return line.replace(needle, needle[:index] + f"\\u{ord(char):04x}"
                        + needle[index + 1:], 1)


@st.composite
def _line(draw, seq):
    event = draw(st.fixed_dictionaries(
        {"kind": st.sampled_from(_KINDS)}, optional=_FIELDS))
    event["seq"] = draw(st.sampled_from([seq, seq, seq, seq + 1, "0"]))
    line = json.dumps(event, sort_keys=draw(st.booleans()),
                      ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(",", ":"),
                                                       (", ", ": ")])))
    mutation = draw(st.sampled_from(["none", "none", "escape", "truncate",
                                     "garbage"]))
    if mutation == "escape":
        needle = draw(st.sampled_from(["wall_", "span.", "kind"]))
        return _escape(line, needle, draw(st.integers(0, len(needle) - 1)))
    if mutation == "truncate":
        return line[:draw(st.integers(0, len(line) - 1))]
    if mutation == "garbage":
        return draw(st.sampled_from(_GARBAGE))
    return line


@st.composite
def _streams(draw):
    count = draw(st.integers(0, 8))
    return [draw(_line(seq)) for seq in range(count)]


def _read_back(lines):
    """Write *lines* as a JSONL file; return its path's lines as a file
    iterates them, and the problems the file validators report."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        with open(path, encoding="utf-8") as fh:
            read = list(fh)
        return read, validate_trace(path), validate_spans(path)


_HEADER = '{"context":{},"kind":"run.start","schema":"repro.trace/v4","seq":0}'


@given(_streams())
# An escaped wall key holding a string: only the \u clause finds it.
@example([_HEADER, '{"kind":"e","seq":1,"\\u0077all_x":"s"}'])
@example([_HEADER, '{"kind":"e","seq":1,"wal\\u006c_x":[1]}'])
# An escaped span kind whose event is the only problem, after a line
# that is not an object: only the \u clause finds it, and it must be
# numbered among the lines that parse as objects.
@example(["not json", '{"kind":"span\\u002eend","seq":1,"span_id":"s1",'
          '"trace_id":"t1"}'])
@example([_HEADER, "", '{"kind":"\\u0073pan.start","seq":2,"span_id":"s1",'
          '"trace_id":"t1","name":"x","parent_id":"s0"}'])
def test_validators_report_what_the_references_report(lines):
    read, trace_errors, span_errors = _read_back(lines)
    reference = reference_validate_trace_lines(read)
    assert [error for error in trace_errors
            if not _HOPS_AT_PROBLEM.match(error)] == reference
    assert [error for error in validate_trace_lines(read)
            if not _HOPS_AT_PROBLEM.match(error)] == reference
    assert span_errors == reference_validate_span_lines(read)
    assert validate_span_lines(read) == reference_validate_span_lines(read)


def test_the_escaped_examples_report_a_problem():
    """The explicit examples above are not vacuous."""
    wall = [_HEADER, '{"kind":"e","seq":1,"\\u0077all_x":"s"}']
    assert reference_validate_trace_lines(wall) == [
        "line 2: wall field 'wall_x' is not a number"]
    span = ["not json", '{"kind":"span\\u002eend","seq":1,"span_id":"s1",'
            '"trace_id":"t1"}']
    assert _read_back(span)[2] == [
        "event 1: span.end s1 without a matching span.start"]
