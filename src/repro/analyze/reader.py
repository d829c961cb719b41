"""Streaming JSONL trace reading and span-tree reconstruction.

:func:`iter_trace_events` yields parsed events one line at a time —
the whole toolkit is built on it, so a trace file is never materialized
in memory.  :func:`resolve_hops` puts a v4 ``forward`` event's hop list
back where it was referenced.  :func:`build_span_forest` folds a
(possibly filtered) event stream into a :class:`SpanForest` of
parent-linked :class:`SpanNode` objects; callers that only need the
bounded *structural* spans pass a ``skip`` predicate to keep
high-volume span kinds (per-packet ``forward`` walks) out of the
forest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Union)

from repro.obs.spans import SPAN_END, SPAN_START, read_trace

#: One parsed JSONL event.
Event = Dict[str, object]

#: Start/end bookkeeping keys that are identity, not payload.
_META_KEYS = frozenset({"kind", "seq", "t", "name", "span_id", "trace_id",
                        "parent_id"})


def iter_trace_events(path: Union[str, Path]) -> Iterator[Event]:
    """Yield the events of a JSONL trace file, streaming line by line.

    Lines that are not JSON objects are skipped (the trace schema
    validator, not the reader, is responsible for reporting them); a
    file that cannot be read as UTF-8 raises
    :class:`~repro.net.errors.TraceError`.
    """
    with read_trace(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                yield event


def resolve_hops(events: Iterable[Event]) -> Iterator[Event]:
    """Yield *events* with every ``forward`` event's hop list in place.

    Trace schema v4 lists a flow's hops once; a later ``forward`` event
    repeating them carries ``hops_at``, the ``seq`` of the event that
    listed them.  Such an event is yielded as a copy with ``hops``
    instead of ``hops_at``, so "which path did this packet take" reads
    the same from every schema version.  A ``hops_at`` naming no earlier
    listing is left as it is (``validate_trace`` reports it).  Keeps one
    hop list per listing event.
    """
    listed: Dict[int, object] = {}
    for event in events:
        if event.get("kind") == "forward":
            seq, hops = event.get("seq"), event.get("hops")
            at = event.get("hops_at")
            if isinstance(hops, list) and isinstance(seq, int):
                listed[seq] = hops
            elif (isinstance(at, int) and not isinstance(at, bool)
                  and at in listed):
                event = {key: value for key, value in event.items()
                         if key != "hops_at"}
                event["hops"] = listed[at]
        yield event


def as_float(value: object) -> Optional[float]:
    """Narrow an event field to a float (bools are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def as_str(value: object) -> Optional[str]:
    return value if isinstance(value, str) else None


@dataclass
class SpanNode:
    """One reconstructed span: identity, interval, payload, children."""

    span_id: str
    trace_id: str
    name: str
    parent_id: Optional[str] = None
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    #: Payload fields from ``span.start``.
    fields: Dict[str, object] = field(default_factory=dict)
    #: Payload fields from ``span.end`` (annotations and end kwargs).
    end_fields: Dict[str, object] = field(default_factory=dict)
    children: List[str] = field(default_factory=list)
    #: Whether a ``span.end`` was seen for this span.
    ended: bool = False

    @property
    def duration(self) -> Optional[float]:
        """Sim-time extent; ``None`` unless both endpoints carry ``t``."""
        if self.t_start is None or self.t_end is None:
            return None
        return self.t_end - self.t_start


@dataclass
class SpanForest:
    """All reconstructed spans of one trace, parent-linked."""

    spans: Dict[str, SpanNode] = field(default_factory=dict)
    #: Span ids with no parent, in start order (one per trace tree).
    roots: List[str] = field(default_factory=list)

    def get(self, span_id: str) -> Optional[SpanNode]:
        return self.spans.get(span_id)

    def children_of(self, span_id: str) -> List[SpanNode]:
        node = self.spans.get(span_id)
        if node is None:
            return []
        return [self.spans[child] for child in node.children
                if child in self.spans]

    def walk(self, span_id: str) -> Iterator[SpanNode]:
        """Depth-first traversal of one subtree (pre-order)."""
        node = self.spans.get(span_id)
        if node is None:
            return
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.children_of(current.span_id)))

    def by_name(self, name: str) -> List[SpanNode]:
        """All spans of one kind, in start order."""
        return [node for node in self.spans.values() if node.name == name]

    def ancestor(self, span_id: str, name: str) -> Optional[SpanNode]:
        """The nearest ancestor (inclusive) with the given *name*."""
        current = self.spans.get(span_id)
        while current is not None:
            if current.name == name:
                return current
            if current.parent_id is None:
                return None
            current = self.spans.get(current.parent_id)
        return None


def build_span_forest(events: Iterable[Mapping[str, object]],
                      skip: Optional[Callable[[str], bool]] = None
                      ) -> SpanForest:
    """Fold an event stream into a :class:`SpanForest`.

    *skip* takes a span name and returns True to exclude that span (and
    its payload) from the forest — the memory lever that keeps
    per-packet spans out while reconstructing the structural tree.
    Children of a skipped span still attach by their recorded
    ``parent_id``; they simply become unrooted if the parent is absent.
    """
    forest = SpanForest()
    for event in events:
        kind = event.get("kind")
        if kind == SPAN_START:
            span_id = as_str(event.get("span_id"))
            trace_id = as_str(event.get("trace_id"))
            name = as_str(event.get("name"))
            if span_id is None or trace_id is None or name is None:
                continue
            if skip is not None and skip(name):
                continue
            parent_id = as_str(event.get("parent_id"))
            node = SpanNode(span_id=span_id, trace_id=trace_id, name=name,
                            parent_id=parent_id,
                            t_start=as_float(event.get("t")),
                            fields={key: value for key, value in event.items()
                                    if key not in _META_KEYS})
            forest.spans[span_id] = node
            if parent_id is None:
                forest.roots.append(span_id)
            else:
                parent = forest.spans.get(parent_id)
                if parent is not None:
                    parent.children.append(span_id)
        elif kind == SPAN_END:
            span_id = as_str(event.get("span_id"))
            if span_id is None:
                continue
            node = forest.spans.get(span_id)
            if node is None:
                continue
            node.ended = True
            node.t_end = as_float(event.get("t"))
            node.end_fields = {key: value for key, value in event.items()
                               if key not in _META_KEYS}
    return forest


__all__ = ["Event", "SpanForest", "SpanNode", "as_float", "as_str",
           "build_span_forest", "iter_trace_events", "resolve_hops"]
