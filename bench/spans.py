"""Span recording from outside the program.

A traced run wraps the *bound public methods of the live objects*
(instance attributes; nothing under ``src/`` changes) and records, for
each call, name, start, end and the span that caused it.  Calls made
once per packet or once per IGP instance are ``hot``: they accumulate
into one aggregate per (name, enclosing span) instead of one span each.
Everything is single-threaded and properly nested, so a span's self
time is its duration minus the durations of its direct children, and is
computed as the span closes.  Spans stay in memory until
:meth:`Recorder.write`.

An untraced run uses :class:`NullRecorder`, which has the same methods
and records nothing, so workload code has one path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from bench.registry import LAYERS

#: Name of a scheduler drain that no protocol start preceded.
MIXED_DRAIN = "net.simulator.drain"
#: Every name a drain span can take; together they are the scheduler's time.
DRAIN_NAMES = ("routing.igp_drain", "bgp.drain", MIXED_DRAIN)

#: (count, total duration, total self time)
Totals = Tuple[int, float, float]


def layer_of(name: str) -> str:
    """The layer (a package under ``src/repro``, or ``bench``) of a span."""
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {name!r} belongs to no registered layer")
    return best


class NullRecorder:
    """Records nothing; calls go straight through."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def call(self, name: str, fn: Callable, *args: object,
             **kwargs: object) -> object:
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable, hot: bool = False,
             drain: Optional[str] = None) -> Callable:
        return fn

    def wrap_drain(self, fn: Callable) -> Callable:
        return fn


class Recorder(NullRecorder):
    """In-memory span store with online self-time accounting."""

    enabled = True

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: [name, start, end, parent index, self seconds]
        self.spans: List[list] = []
        #: (name, parent index) -> [count, duration, self seconds]
        self.aggregates: Dict[Tuple[str, int], list] = {}
        self._open: List[int] = []
        #: One running child-duration total per open span or hot call.
        self._child: List[float] = []
        #: Name the next scheduler drain takes: the protocol whose start
        #: scheduled the messages it is about to deliver.
        self._next_drain = MIXED_DRAIN

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, 0.0])
        self._open.append(index)
        self._child.append(0.0)
        return index

    def _exit(self, index: int) -> None:
        end = self.clock()
        record = self.spans[index]
        record[2] = end
        duration = end - record[1]
        record[4] = duration - self._child.pop()
        self._open.pop()
        if self._child:
            self._child[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def call(self, name: str, fn: Callable, *args: object,
             **kwargs: object) -> object:
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable, hot: bool = False,
             drain: Optional[str] = None) -> Callable:
        """A timing wrapper for the bound method *fn*.

        *drain* names the scheduler drain that follows this call (a
        protocol ``start()`` schedules the messages the next drain
        delivers).
        """
        if hot:
            return self._wrap_hot(name, fn, drain)

        def traced(*args: object, **kwargs: object) -> object:
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
                if drain is not None:
                    self._next_drain = drain
        return traced

    def _wrap_hot(self, name: str, fn: Callable,
                  drain: Optional[str]) -> Callable:
        clock = self.clock
        child = self._child
        opened = self._open
        aggregates = self.aggregates

        def traced(*args: object, **kwargs: object) -> object:
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - child.pop()
                child[-1] += duration
                key = (name, opened[-1])
                entry = aggregates.get(key)
                if entry is None:
                    aggregates[key] = [1, duration, own]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own
                if drain is not None:
                    self._next_drain = drain
        return traced

    def wrap_drain(self, fn: Callable) -> Callable:
        """Wrap ``run_until_idle``/``run_until``: the span is named after
        the protocol start that preceded it."""
        def traced(*args: object, **kwargs: object) -> object:
            index = self._enter(self._next_drain)
            self._next_drain = MIXED_DRAIN
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return traced

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.aggregates)

    def _inside(self, root: Optional[str]) -> List[bool]:
        """Per span: is it called *root* or below such a span (all spans
        when None)."""
        if root is None:
            return [True] * len(self.spans)
        inside = [False] * len(self.spans)
        for index, record in enumerate(self.spans):
            parent = record[3]
            inside[index] = record[0] == root or (parent >= 0
                                                  and inside[parent])
        return inside

    def totals(self, root: Optional[str] = None) -> Dict[str, Totals]:
        """(count, duration, self) per span name, within the spans
        called *root* and their subtrees."""
        inside = self._inside(root)
        out: Dict[str, List[float]] = {}
        for index, (name, start, end, _parent, own) in enumerate(self.spans):
            if inside[index]:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += own
        for (name, parent), (count, duration, own) in self.aggregates.items():
            if inside[parent]:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += duration
                entry[2] += own
        return {name: (int(e[0]), e[1], e[2]) for name, e in out.items()}

    def self_by_layer(self, root: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per layer; sums to the *root* spans' duration."""
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_count, _duration, own) in self.totals(root).items():
            layers[layer_of(name)] += own
        return layers

    def write(self, path: Path) -> None:
        """One JSON line per span and per aggregate; times are relative
        to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, own) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "parent": parent,
                     "start": start - origin, "end": end - origin,
                     "self": own}) + "\n")
            for (name, parent), (count, duration, own) in \
                    self.aggregates.items():
                fh.write(json.dumps(
                    {"name": name, "parent": parent, "count": count,
                     "dur": duration, "self": own}) + "\n")
