"""Causal spans: deterministic trace trees over the JSONL event stream.

A *span* is a named interval of causally related work — one forwarding
walk, one fault epoch, one reconvergence episode — emitted as a pair of
``span.start`` / ``span.end`` events carrying ``trace_id`` / ``span_id``
/ ``parent_id``.  Spans nest into trees: every root span opens a new
trace, children inherit their parent's ``trace_id``.

ID determinism
--------------
Span and trace identifiers are allocated from per-run monotonic
counters owned by the :class:`SpanTracker` of one
:class:`~repro.obs.Observability` handle — **never** from wall clock,
``uuid4``, or process-global state.  Two same-seed runs perform the
same operations in the same order, so they allocate identical IDs and
the span events survive the ``strip_wall_fields()`` byte-identity
check like every other deterministic field (see
``docs/observability.md`` invariant 5 and ``docs/tracing.md``).

Propagation
-----------
Three carriers move a span context across asynchrony:

* an explicit stack on the handle (``with obs.span(...)`` pushes, so
  synchronously nested spans parent automatically);
* :attr:`repro.net.packet.Packet.span` — a forwarding walk stamps its
  context onto the packet, so replicas and encap/decap copies stay in
  the same trace;
* :class:`~repro.net.simulator.EventScheduler` — ``schedule()``
  captures the current context and ``step()`` re-activates it around
  the callback, so control-plane message cascades parent correctly.

The disabled path is a shared no-op (:data:`NULL_SPAN`): span plumbing
costs one ``enabled`` check when observability is off.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import (IO, TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple, Union)

from repro.net.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import Observability

#: Event kinds the span layer emits.
SPAN_START = "span.start"
SPAN_END = "span.end"


class SpanContext:
    """The immutable, propagatable identity of one span."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanContext):
            return NotImplemented
        return (self.trace_id, self.span_id) == (other.trace_id, other.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))


class AbstractSpan:
    """Shared interface of :class:`Span` and the disabled no-op."""

    __slots__ = ()

    @property
    def context(self) -> Optional[SpanContext]:
        return None

    def start(self, t: Optional[float] = None) -> "AbstractSpan":
        return self

    def annotate(self, **fields: object) -> None:
        return None

    def end(self, t: Optional[float] = None, **fields: object) -> None:
        return None

    def __enter__(self) -> "AbstractSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullSpan(AbstractSpan):
    """Permanently disabled span; every operation is a no-op."""

    __slots__ = ()


#: Shared no-op returned by ``obs.span(...)`` on a disabled handle.
NULL_SPAN = NullSpan()


class Span(AbstractSpan):
    """One live span bound to an enabled observability handle.

    The constructor allocates IDs but emits nothing; the ``span.start``
    event is written by :meth:`start` (called implicitly by
    ``__enter__`` and, if needed, by :meth:`end`, so a start always
    precedes its end).  ``with obs.span(...)`` additionally pushes the
    context onto the handle's stack so nested spans parent correctly.
    """

    __slots__ = ("_obs", "name", "_context", "parent_id", "_t_start",
                 "_start_fields", "_end_fields", "_started", "_ended")

    def __init__(self, obs: "Observability", name: str, context: SpanContext,
                 parent_id: Optional[str], t: Optional[float],
                 fields: Dict[str, object]) -> None:
        self._obs = obs
        self.name = name
        self._context = context
        self.parent_id = parent_id
        self._t_start = t
        self._start_fields = fields
        self._end_fields: Dict[str, object] = {}
        self._started = False
        self._ended = False

    @property
    def context(self) -> SpanContext:
        return self._context

    def start(self, t: Optional[float] = None) -> "Span":
        """Emit ``span.start`` (idempotent)."""
        if self._started:
            return self
        self._started = True
        if t is not None:
            self._t_start = t
        fields = self._start_fields
        if self.parent_id is not None:
            fields = dict(fields)
            fields["parent_id"] = self.parent_id
        self._obs.event(SPAN_START, t=self._t_start, name=self.name,
                        trace_id=self._context.trace_id,
                        span_id=self._context.span_id, **fields)
        return self

    def annotate(self, **fields: object) -> None:
        """Attach fields to the eventual ``span.end`` event."""
        self._end_fields.update(fields)

    def end(self, t: Optional[float] = None, **fields: object) -> None:
        """Emit ``span.end`` (idempotent; forces the start out first)."""
        if self._ended:
            return
        self.start()
        self._ended = True
        if fields:
            self._end_fields.update(fields)
        self._obs.event(SPAN_END, t=t, name=self.name,
                        trace_id=self._context.trace_id,
                        span_id=self._context.span_id, **self._end_fields)

    def __enter__(self) -> "Span":
        self.start()
        self._obs.push_span_context(self._context)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._obs.pop_span_context()
        exc_type = exc_info[0] if exc_info else None
        if exc_type is not None and not self._ended:
            name = getattr(exc_type, "__name__", None)
            self.annotate(error=name if isinstance(name, str) else str(exc_type))
        self.end()


#: Acceptable ``parent=`` arguments to ``obs.span``.
ParentLike = Union[AbstractSpan, SpanContext, None]


class SpanTracker:
    """Per-handle span state: deterministic ID counters + context stack.

    One tracker per :class:`~repro.obs.Observability` handle, created
    eagerly so the counters reset with the handle — two same-seed runs
    against fresh handles allocate identical ID sequences.
    """

    __slots__ = ("_span_n", "_trace_n", "_stack")

    def __init__(self) -> None:
        self._span_n = 0
        self._trace_n = 0
        self._stack: List[SpanContext] = []

    def create(self, obs: "Observability", name: str, *,
               t: Optional[float], parent: ParentLike,
               fields: Dict[str, object]) -> Span:
        if parent is None:
            parent_ctx: Optional[SpanContext] = self.current()
        elif isinstance(parent, AbstractSpan):
            parent_ctx = parent.context
        else:
            parent_ctx = parent
        self._span_n += 1
        span_id = f"s{self._span_n:06d}"
        if parent_ctx is None:
            self._trace_n += 1
            trace_id = f"t{self._trace_n:04d}"
            parent_id: Optional[str] = None
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        return Span(obs, name, SpanContext(trace_id, span_id), parent_id,
                    t, fields)

    def current(self) -> Optional[SpanContext]:
        return self._stack[-1] if self._stack else None

    def push(self, context: SpanContext) -> None:
        self._stack.append(context)

    def pop(self) -> None:
        if self._stack:
            self._stack.pop()


# -- validation ----------------------------------------------------------------

def _span_ids(event: Dict[str, object]) -> Tuple[Optional[str], Optional[str],
                                                 Optional[str]]:
    span_id = event.get("span_id")
    trace_id = event.get("trace_id")
    parent_id = event.get("parent_id")
    return (span_id if isinstance(span_id, str) else None,
            trace_id if isinstance(trace_id, str) else None,
            parent_id if isinstance(parent_id, str) else None)


def validate_span_events(events: Iterable[Dict[str, object]]) -> List[str]:
    """Check span causality invariants over a parsed event stream.

    Streaming (one pass, state proportional to the number of distinct
    spans).  Checked invariants:

    * ``span.start``: unique ``span_id``; string ``trace_id`` and
      ``name``; a ``parent_id``, when present, references a span that
      *already started* (parents precede children) and shares its
      ``trace_id``;
    * ``span.end``: matches a prior ``span.start`` of the same
      ``span_id`` and is not a duplicate end.

    Returns human-readable problems; empty means valid.  Unclosed spans
    are legal (some spans outlive the trace) and are not reported here.
    """
    errors: List[str] = []
    started: Dict[str, str] = {}  # span_id -> trace_id
    ended: Set[str] = set()
    for n, event in enumerate(events, start=1):
        kind = event.get("kind")
        if kind == SPAN_START:
            span_id, trace_id, parent_id = _span_ids(event)
            if span_id is None or trace_id is None:
                errors.append(f"event {n}: span.start missing span_id/trace_id")
                continue
            if not isinstance(event.get("name"), str):
                errors.append(f"event {n}: span.start {span_id} has no 'name'")
            if span_id in started:
                errors.append(f"event {n}: duplicate span.start for {span_id}")
                continue
            if "parent_id" in event:
                if parent_id is None:
                    errors.append(f"event {n}: span.start {span_id} has a "
                                  "non-string parent_id")
                elif parent_id not in started:
                    errors.append(f"event {n}: span.start {span_id} has orphan "
                                  f"parent_id {parent_id} (parent must start "
                                  "first)")
                elif started[parent_id] != trace_id:
                    errors.append(f"event {n}: span {span_id} trace_id "
                                  f"{trace_id} != parent {parent_id} trace_id "
                                  f"{started[parent_id]}")
            started[span_id] = trace_id
        elif kind == SPAN_END:
            span_id, trace_id, _ = _span_ids(event)
            if span_id is None or trace_id is None:
                errors.append(f"event {n}: span.end missing span_id/trace_id")
                continue
            if span_id not in started:
                errors.append(f"event {n}: span.end {span_id} without a "
                              "matching span.start")
                continue
            if span_id in ended:
                errors.append(f"event {n}: duplicate span.end for {span_id}")
                continue
            if started[span_id] != trace_id:
                errors.append(f"event {n}: span.end {span_id} trace_id "
                              f"{trace_id} != start trace_id "
                              f"{started[span_id]}")
            ended.add(span_id)
    return errors


#: Stands in for a line left unparsed because it cannot hold a span event.
_NOT_A_SPAN: Dict[str, object] = {}


def _objects(lines: Iterable[str],
             spans_only: bool) -> Iterator[Dict[str, object]]:
    """The lines that parse as JSON objects, parsed.  With *spans_only*
    a line whose ``kind`` cannot decode to ``span.…`` — it neither
    spells ``span.`` out nor escapes a character — is not parsed and
    stands as :data:`_NOT_A_SPAN`, whatever it holds."""
    for line in lines:
        if spans_only and "span." not in line and "\\u" not in line:
            yield _NOT_A_SPAN
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            yield event


def validate_span_lines(lines: Iterable[str]) -> List[str]:
    """Span-validate serialized JSONL lines (non-JSON lines are skipped
    here; the trace schema validator reports those)."""
    return validate_span_events(_objects(lines, spans_only=False))


def validate_spans(path: str) -> List[str]:
    """Span-validate a JSONL trace file, streaming line by line.

    The first read parses only the lines that can hold a span event, so
    it finds exactly the problems a full read finds.  But a problem is
    numbered by its event's place among the lines that parse as JSON
    objects, which an unparsed line leaves open; so a trace with
    problems is read a second time, parsing every line, to number them.
    """
    with read_trace(path) as fh:
        if not validate_span_events(_objects(fh, spans_only=True)):
            return []
    with read_trace(path) as fh:
        return validate_span_lines(fh)


@contextmanager
def read_trace(path: Union[str, Path]) -> Iterator[IO[str]]:
    """Open a JSONL trace for reading.  A file that is missing,
    unreadable or not UTF-8 raises :class:`TraceError`, also when the
    bad bytes surface while the caller reads."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"trace {str(path)!r}: {exc}") from exc


__all__ = ["AbstractSpan", "NULL_SPAN", "NullSpan", "SPAN_END", "SPAN_START",
           "Span", "SpanContext", "SpanTracker", "read_trace",
           "validate_span_events", "validate_span_lines", "validate_spans"]
