"""repro.obs: the library's observability layer.

Two primitives behind one handle (:class:`Observability`):

* a :class:`~repro.obs.registry.Registry` of named counters, gauges,
  and histograms (process-local aggregation, JSON-safe snapshots);
* a :class:`~repro.obs.tracer.Tracer` emitting structured JSONL events
  with per-run context (seed, topology, scenario), causally linked by
  :meth:`Observability.span`.

Instrumented subsystems (the event scheduler, the forwarding engine,
both IGPs, BGP, the vN-Bone, the fault injector) bind the *active*
handle at construction time via :func:`get_obs`; experiments activate a
handle for the duration of a run with :func:`observing`::

    from repro.obs import Observability, Tracer, observing

    obs = Observability(tracer=Tracer("run.jsonl", context={"seed": 7}))
    with observing(obs):
        result = experiments.run("anycast_failover", seed=7, obs=obs)
    print(obs.metrics_summary()["counters"]["scheduler.events_fired"])

The default active handle is :data:`NULL_OBS` — permanently disabled —
so uninstrumented use of the library pays only an attribute check per
instrumented hot-path operation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.sampler import METRIC_SAMPLE, MetricSampler
from repro.obs.serialize import json_safe
from repro.obs.spans import (NULL_SPAN, SPAN_END, SPAN_START, AbstractSpan,
                             NullSpan, Span, SpanContext, SpanTracker,
                             validate_span_events, validate_span_lines,
                             validate_spans)
from repro.obs.tracer import (RUN_END, RUN_START, TRACE_SCHEMA, WALL_PREFIX,
                              Tracer, strip_wall_fields, validate_trace,
                              validate_trace_lines)


class Observability:
    """One observability context: a registry plus an optional tracer.

    ``enabled`` is the single hot-path switch: instrumented code guards
    every metric update and event emission behind ``if obs.enabled``,
    so a disabled handle (notably :data:`NULL_OBS`) costs one attribute
    load per operation.
    """

    def __init__(self, registry: Optional[Registry] = None,
                 tracer: Optional[Tracer] = None,
                 enabled: bool = True) -> None:
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.enabled = enabled
        self._spans = SpanTracker()

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)

    # -- metrics -------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def metrics_summary(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe snapshot of every metric collected so far."""
        return self.registry.snapshot()

    # -- tracing -------------------------------------------------------------
    def event(self, kind: str, t: Optional[float] = None,
              **fields: object) -> Optional[int]:
        """Emit one structured trace event and return its ``seq``
        (``None``, and nothing written, when disabled or untraced)."""
        if self.enabled and self.tracer is not None:
            return self.tracer.emit(kind, t=t, **fields)
        return None

    @property
    def trace_path(self) -> Optional[str]:
        return self.tracer.path if self.tracer is not None else None

    def close(self) -> None:
        """Finalize the trace (writes the ``run.end`` footer)."""
        if self.tracer is not None:
            self.tracer.close()

    # -- causal spans --------------------------------------------------------
    def span(self, name: str, *, t: Optional[float] = None,
             parent: object = None, **fields: object) -> AbstractSpan:
        """Open a causal span; the shared :data:`NULL_SPAN` when disabled.

        ``parent`` accepts a :class:`Span`, a :class:`SpanContext`, or
        ``None`` (inherit the innermost entered span, else start a new
        trace).  *fields* land on the ``span.start`` event; *t* is
        simulation time when meaningful.  Use as a context manager to
        make synchronously nested spans parent automatically.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is not None and not isinstance(parent, (AbstractSpan,
                                                          SpanContext)):
            raise TypeError("span parent must be a Span, SpanContext, or "
                            f"None, got {type(parent).__name__}")
        return self._spans.create(self, name, t=t, parent=parent,
                                  fields=dict(fields))

    def current_span_context(self) -> Optional[SpanContext]:
        """The innermost entered span's context (propagation carriers
        capture this), or ``None``."""
        return self._spans.current()

    def push_span_context(self, context: SpanContext) -> None:
        """Activate a propagated span context (scheduler-carried)."""
        self._spans.push(context)

    def pop_span_context(self) -> None:
        self._spans.pop()

    # -- periodic sampling ---------------------------------------------------
    def sampler(self, interval: float) -> MetricSampler:
        """A sim-time metric sampler; attach it to an
        :class:`~repro.net.simulator.EventScheduler`."""
        return MetricSampler(self, interval)


#: The permanently disabled default handle.
NULL_OBS = Observability.disabled()

_ACTIVE: Observability = NULL_OBS


def get_obs() -> Observability:
    """The currently active observability handle (default: disabled)."""
    return _ACTIVE


@contextmanager
def observing(obs: Optional[Observability]) -> Iterator[Observability]:
    """Activate *obs* for the dynamic extent of the ``with`` block.

    Objects constructed inside the block (orchestrators, schedulers,
    protocol instances) bind the handle and keep reporting to it after
    the block exits; ``None`` activates :data:`NULL_OBS`.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = obs if obs is not None else NULL_OBS
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


__all__ = ["AbstractSpan", "Counter", "Gauge", "Histogram", "METRIC_SAMPLE",
           "MetricSampler", "NULL_OBS", "NULL_SPAN", "NullSpan",
           "Observability", "Registry", "RUN_END",
           "RUN_START", "SPAN_END", "SPAN_START", "Span", "SpanContext",
           "SpanTracker", "TRACE_SCHEMA", "Tracer", "WALL_PREFIX", "get_obs",
           "json_safe", "observing", "strip_wall_fields",
           "validate_span_events", "validate_span_lines", "validate_spans",
           "validate_trace", "validate_trace_lines"]
