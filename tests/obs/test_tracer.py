"""Tracer JSONL round-trip, schema validation, wall-field stripping."""

import enum
import json

import pytest
from hypothesis import given, strategies as st

from repro.obs import (RUN_END, RUN_START, Tracer, json_safe,
                       strip_wall_fields, validate_trace,
                       validate_trace_lines)


class TestInMemoryTracer:
    def test_header_events_footer_roundtrip(self):
        tracer = Tracer(context={"seed": 7, "experiment": "x"})
        tracer.emit("alpha", t=1.0, value=3)
        tracer.emit("beta", nested={"k": [1, 2]})
        tracer.close()
        events = tracer.events()
        assert [e["kind"] for e in events] == [RUN_START, "alpha", "beta",
                                               RUN_END]
        assert events[0]["context"] == {"seed": 7, "experiment": "x"}
        assert events[1]["t"] == 1.0 and events[1]["value"] == 3
        assert events[2]["nested"] == {"k": [1, 2]}
        assert events[-1]["events"] == 2

    def test_seq_consecutive_and_sorted_keys(self):
        tracer = Tracer()
        tracer.emit("e", zebra=1, apple=2)
        tracer.close()
        lines = tracer.lines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2]
        parsed = json.loads(lines[1])
        assert list(parsed) == sorted(parsed)

    def test_emit_after_close_is_dropped(self):
        tracer = Tracer()
        tracer.emit("e")
        tracer.close()
        tracer.emit("late")
        assert len(tracer.lines()) == 3  # start, e, end — no 'late'

    def test_validates_clean(self):
        tracer = Tracer(context={"seed": 0})
        tracer.emit("e", t=2.5, wall_ms=1.0)
        tracer.close()
        assert validate_trace_lines(tracer.lines()) == []


class TestFileTracer:
    def test_writes_valid_jsonl_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with Tracer(path, context={"seed": 3}) as tracer:
            tracer.emit("e", t=0.0)
        assert validate_trace(path) == []
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == RUN_START

    def test_lines_rejected_on_file_tracers(self, tmp_path):
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        tracer.close()
        with pytest.raises(ValueError):
            tracer.lines()


class TestDurableClose:
    def test_failed_footer_write_still_closes_the_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path, context={"seed": 0})
        tracer.emit("e", t=0.0)
        fh = tracer._fh
        original_write = tracer._write

        def failing_write(record):
            raise OSError("disk full")

        tracer._write = failing_write
        with pytest.raises(OSError):
            tracer.close()
        assert fh.closed
        assert tracer._fh is None
        # close() is idempotent even after the failure.
        tracer._write = original_write
        tracer.close()

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path, context={"seed": 0})
        tracer.close()
        tracer.close()
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [RUN_START,
                                                                RUN_END]


class TestStreamingValidation:
    def test_validate_trace_streams_from_the_file_handle(self, tmp_path):
        # validate_trace consumes the open handle line by line; feeding
        # it a generator (not a materialized list) must work because
        # that is exactly what a file handle is.
        path = tmp_path / "trace.jsonl"
        with Tracer(str(path), context={"seed": 1}) as tracer:
            for n in range(100):
                tracer.emit("e", t=float(n))
        assert validate_trace(str(path)) == []

        def one_shot_lines():
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    yield line

        assert validate_trace_lines(one_shot_lines()) == []

    def test_unknown_schema_is_rejected(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {},
                             "schema": "repro.trace/v99"})]
        errors = validate_trace_lines(lines)
        assert any("unknown trace schema" in error for error in errors)

    def test_v1_streams_without_schema_field_still_validate(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {}}),
                 json.dumps({"kind": RUN_END, "seq": 1, "events": 0})]
        assert validate_trace_lines(lines) == []

    def test_span_events_need_string_ids(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {}}),
                 json.dumps({"kind": "span.start", "seq": 1, "name": "x",
                             "span_id": 7, "trace_id": "t0001"})]
        errors = validate_trace_lines(lines)
        assert any("span_id" in error for error in errors)


class TestValidation:
    def test_rejects_bad_json(self):
        assert validate_trace_lines(["not json"])

    def test_rejects_missing_header(self):
        line = json.dumps({"kind": "e", "seq": 0})
        errors = validate_trace_lines([line])
        assert any(RUN_START in error for error in errors)

    def test_rejects_gapped_seq(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {}}),
                 json.dumps({"kind": "e", "seq": 5})]
        errors = validate_trace_lines(lines)
        assert any("seq" in error for error in errors)

    def test_rejects_events_after_run_end(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {}}),
                 json.dumps({"kind": RUN_END, "seq": 1, "events": 0}),
                 json.dumps({"kind": "late", "seq": 2})]
        errors = validate_trace_lines(lines)
        assert any(RUN_END in error for error in errors)

    def test_rejects_non_numeric_wall_field(self):
        lines = [json.dumps({"kind": RUN_START, "seq": 0, "context": {}}),
                 json.dumps({"kind": "e", "seq": 1, "wall_ms": "slow"})]
        errors = validate_trace_lines(lines)
        assert any("wall_ms" in error for error in errors)

    def test_rejects_empty_trace(self):
        assert validate_trace_lines([]) == ["trace is empty"]


class TestStripWallFields:
    def test_removes_only_wall_prefixed_keys(self):
        line = json.dumps({"kind": "e", "seq": 1, "t": 2.0,
                           "wall_ms": 17.3, "value": 4})
        stripped = json.loads(strip_wall_fields([line])[0])
        assert "wall_ms" not in stripped
        assert stripped["t"] == 2.0 and stripped["value"] == 4


class TestJsonSafe:
    def test_conversions(self):
        class Color(enum.Enum):
            RED = "red"

        class WithDict:
            def to_dict(self):
                return {"inner": {1, 3, 2}}

        assert json_safe(Color.RED) == "red"
        assert json_safe({"k": (1, 2)}) == {"k": [1, 2]}
        assert json_safe({3, 1, 2}) == [1, 2, 3]
        assert json_safe(WithDict()) == {"inner": [1, 2, 3]}
        assert json_safe(object()).startswith("<object object")


class _Level(enum.IntEnum):
    LOW = 1


class _Mode(str, enum.Enum):
    FAST = "fast"


class _Shape:
    def to_dict(self):
        return {"sides": (3, 4), "tags": {2, 1}}


class _Name(str):
    pass


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))


def _old_line(kind, seq, t, fields):
    """The event line as ``emit`` wrote it with ``json_safe`` on every
    field and ``json.dumps`` per call."""
    record = {"kind": kind, "seq": seq}
    if t is not None:
        record["t"] = t
    for key, value in fields.items():
        record[key] = json_safe(value)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestEmitEncoding:
    @given(fields=st.dictionaries(
        st.text(min_size=1, max_size=6).filter(
            lambda key: key not in ("kind", "seq", "t")),
        st.recursive(
            _LEAVES | st.sampled_from([_Level.LOW, _Mode.FAST, _Shape(),
                                       _Name("n"), frozenset({3, 1}),
                                       object]),
            lambda inner: (st.lists(inner, max_size=3)
                           | st.tuples(inner, inner)
                           | st.dictionaries(st.text(max_size=3), inner,
                                             max_size=3)),
            max_leaves=6),
        max_size=4),
        t=st.none() | st.floats(allow_nan=False))
    def test_lines_are_what_json_safe_and_dumps_wrote(self, fields, t):
        tracer = Tracer()
        tracer.emit("e", t=t, **fields)
        assert tracer.lines()[1] == _old_line("e", 1, t, fields)
