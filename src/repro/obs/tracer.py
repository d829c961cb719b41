"""Structured JSONL event tracing with per-run context.

One :class:`Tracer` is one event stream: a ``run.start`` header
carrying the run context (experiment id, seed, scenario parameters),
then one JSON object per line for every emitted event, then a
``run.end`` footer when the tracer is closed.

The stream format (documented in ``docs/observability.md``) is designed
for two consumers: post-hoc analysis tooling (every line is standalone
JSON with sorted keys) and determinism regression tests (two same-seed
runs emit byte-identical streams once fields prefixed ``wall_`` —
wall-clock timings, inherently nondeterministic — are stripped).

A tracer opened without a ``path`` keeps its serialized lines in
memory (:meth:`Tracer.lines`), which tests and the self-check use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, IO, Iterable, List, Optional, Set

from repro.obs.serialize import json_safe

#: Key prefix marking wall-clock-derived (nondeterministic) fields.
WALL_PREFIX = "wall_"

#: Event kinds every stream starts and ends with.
RUN_START = "run.start"
RUN_END = "run.end"

#: Schema tag stamped into the ``run.start`` header.  v2 added the
#: ``span.start``/``span.end`` causal-span events (``docs/tracing.md``);
#: v3 added ``probe.rtt`` measurement events and latency fields on
#: forward events/spans; v4 lists a flow's hops once: a ``forward``
#: event repeating them carries ``hops_at``, the ``seq`` of the
#: ``forward`` event that listed them.  v1 streams (no ``schema``
#: field), v2 and v3 streams still validate.
TRACE_SCHEMA = "repro.trace/v4"

_KNOWN_SCHEMAS = ("repro.trace/v1", "repro.trace/v2", "repro.trace/v3",
                  TRACE_SCHEMA)

#: The one event encoder: sorted keys, no spaces (what ``json.dumps``
#: with those keywords writes, without building an encoder per call).
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Field types written as they are; anything else goes through
#: ``json_safe``.  Exact types: an enum member that is also an ``int``
#: or ``str`` must still collapse to its value.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


class Tracer:
    """Writes one structured event stream, as JSON lines.

    Parameters
    ----------
    path:
        Target file.  ``None`` keeps lines in memory instead.
    context:
        Per-run context (seed, topology, scenario, params, ...), written
        once into the ``run.start`` header event.
    """

    def __init__(self, path: Optional[str] = None,
                 context: Optional[Dict[str, object]] = None) -> None:
        self.path = str(path) if path is not None else None
        self.context = dict(context or {})
        self._fh: Optional[IO[str]] = None
        self._lines: List[str] = []
        self._seq = 0
        self._started = False
        self._closed = False

    @classmethod
    def for_cell(cls, cell_name: str, directory: str,
                 context: Optional[Dict[str, object]] = None) -> "Tracer":
        """A tracer writing to ``<directory>/<cell_name>.jsonl``.

        The per-cell trace convention of the fleet engine: each sweep
        cell (and each worker process) gets its own stream, derived
        deterministically from the cell id, so parallel cells never
        interleave events in one file.  Creates *directory* if needed.
        """
        target = Path(directory) / f"{cell_name}.jsonl"
        target.parent.mkdir(parents=True, exist_ok=True)
        return cls(path=str(target), context=context)

    # -- lifecycle ----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        if self.path is not None:
            self._fh = Path(self.path).open("w", encoding="utf-8")
        self._write({"kind": RUN_START, "seq": self._next_seq(),
                     "schema": TRACE_SCHEMA,
                     "context": json_safe(self.context)})

    def close(self) -> None:
        """Write the ``run.end`` footer and release the file handle.

        Durable: the handle is closed even when writing the footer
        raises (full disk, closed stream), so a failed final write
        never leaks the descriptor or leaves the file unflushed.
        """
        if self._closed:
            return
        self._ensure_started()
        self._closed = True
        try:
            self._write({"kind": RUN_END, "seq": self._next_seq(),
                         "events": self._seq - 2})
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Tracer":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- emission -----------------------------------------------------------
    def emit(self, kind: str, t: Optional[float] = None,
             **fields: object) -> Optional[int]:
        """Append one event and return its ``seq`` (``None`` once the
        tracer is closed).  *t* is simulation time when meaningful."""
        if self._closed:
            return None
        self._ensure_started()
        seq = self._next_seq()
        record: Dict[str, object] = {"kind": kind, "seq": seq}
        if t is not None:
            record["t"] = t
        for key, value in fields.items():
            record[key] = (value if type(value) in _SCALAR_TYPES
                           else json_safe(value))
        self._write(record)
        return seq

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _write(self, record: Dict[str, object]) -> None:
        line = _ENCODE(record)
        if self._fh is not None:
            self._fh.write(line + "\n")
        else:
            self._lines.append(line)

    # -- inspection ----------------------------------------------------------
    def lines(self) -> List[str]:
        """Serialized lines (in-memory tracers only)."""
        if self.path is not None:
            raise ValueError("lines() is only available on in-memory tracers; "
                             f"this tracer writes to {self.path!r}")
        return list(self._lines)

    def events(self) -> List[Dict[str, object]]:
        """Parsed events (in-memory tracers only)."""
        return [json.loads(line) for line in self.lines()]


# -- schema validation ---------------------------------------------------------

def validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """Validate an event stream against the documented JSONL schema.

    Returns a list of human-readable problems; empty means valid.
    Checked invariants: every line is a standalone JSON object; ``kind``
    (string) and ``seq`` (int) are present; ``seq`` is consecutive from
    0; the first event is ``run.start`` with a ``context`` object; ``t``
    and every ``wall_*`` field are numbers; a ``run.end``, if present,
    is the final event; a ``hops_at`` is an int naming an earlier
    ``forward`` event that lists ``hops``.
    """
    errors: List[str] = []
    expected_seq = 0
    saw_end_at: Optional[int] = None
    # Seqs of the forward events that list hops.
    listed: Set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(event, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        kind = event.get("kind")
        if not isinstance(kind, str) or not kind:
            errors.append(f"line {lineno}: missing or non-string 'kind'")
        seq = event.get("seq")
        if not isinstance(seq, int):
            errors.append(f"line {lineno}: missing or non-int 'seq'")
        elif seq != expected_seq:
            errors.append(f"line {lineno}: seq {seq} != expected {expected_seq}")
        expected_seq += 1
        if lineno == 1:
            if kind != RUN_START:
                errors.append(f"line 1: first event must be {RUN_START!r}, "
                              f"got {kind!r}")
            elif not isinstance(event.get("context"), dict):
                errors.append("line 1: run.start has no 'context' object")
            schema = event.get("schema")
            if schema is not None and schema not in _KNOWN_SCHEMAS:
                errors.append(f"line 1: unknown trace schema {schema!r}")
        if kind in ("span.start", "span.end"):
            for field in ("span_id", "trace_id"):
                if not isinstance(event.get(field), str):
                    errors.append(f"line {lineno}: {kind} has missing or "
                                  f"non-string {field!r}")
        if saw_end_at is not None:
            errors.append(f"line {lineno}: event after {RUN_END!r} "
                          f"(line {saw_end_at})")
        if kind == RUN_END:
            saw_end_at = lineno
        t = event.get("t")
        if t is not None and not isinstance(t, (int, float)):
            errors.append(f"line {lineno}: 't' is not a number")
        if "hops_at" in event:
            at = event["hops_at"]
            if isinstance(at, bool) or not isinstance(at, int):
                errors.append(f"line {lineno}: 'hops_at' is not an int")
            elif at not in listed:
                errors.append(f"line {lineno}: hops_at {at} names no earlier "
                              "forward event listing hops")
        if (kind == "forward" and isinstance(seq, int)
                and isinstance(event.get("hops"), list)):
            listed.add(seq)
        # A key decodes to "wall_..." only if the line spells it out or
        # escapes a character of it.
        if WALL_PREFIX in line or "\\u" in line:
            for key, value in event.items():
                if (key.startswith(WALL_PREFIX)
                        and not isinstance(value, (int, float))):
                    errors.append(f"line {lineno}: wall field {key!r} "
                                  "is not a number")
    if expected_seq == 0:
        errors.append("trace is empty")
    return errors


def validate_trace(path: str) -> List[str]:
    """Validate a JSONL trace file; returns problems (empty == valid).

    Streams line-by-line from the open handle — a ROADMAP-scale trace
    (millions of events) validates in constant memory instead of being
    materialized as one string.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        return validate_trace_lines(fh)


def strip_wall_fields(lines: Iterable[str]) -> List[str]:
    """Re-serialize events with every ``wall_*`` field removed.

    The determinism regression uses this: two same-seed runs must be
    byte-identical modulo wall-clock fields.
    """
    stripped: List[str] = []
    for line in lines:
        event = json.loads(line)
        cleaned = {key: value for key, value in event.items()
                   if not key.startswith(WALL_PREFIX)}
        stripped.append(_ENCODE(cleaned))
    return stripped
