"""Build a ``repro.report/v1`` document from one JSONL trace.

One streaming pass over the trace (:func:`iter_trace_events`) feeds a
:class:`_Collector`:

* bounded *structural* spans (epochs, reconvergence episodes, hold-down
  timers, rebuilds) are kept as a :class:`SpanForest`;
* high-volume ``forward`` spans are **aggregated, never stored** —
  outcome counts, Welford hop/encapsulation distributions, bounded
  blackhole/loop example lists, and per-epoch phase attribution via the
  parent ``fault.workload`` span;
* ``reach.probe`` events feed the path-stretch distribution (stretch is
  an oracle quantity — trace cost over the true shortest path — that
  the emitting side computes because the trace alone cannot);
* ``metric.sample`` events become the convergence timeline.

The resulting document deliberately excludes the trace *file path* and
every ``wall_*`` field, so two same-seed runs produce byte-identical
reports no matter where their traces were written.

Critical path
-------------
Per fault epoch, sim-time from ``fault.apply`` (the epoch's ``t0``) to
the first recovered delivery, split into phases:

``igp_holddown``
    ``t0`` until the last ``igp.holddown`` span under the epoch ends —
    the quiet period before the IGP floods the topology change.
``igp_flood_spf``
    hold-down expiry until the epoch's ``fault.reconverge`` span ends —
    LSA flooding plus SPF recomputation across the affected domains.
``bgp_resync``
    total duration of ``orchestrator.reconverge`` spans under the
    epoch's ``vnbone.rebuild`` spans — inter-domain state settling
    after membership changed.
``vnbone_rebuild``
    the remainder of the ``vnbone.rebuild`` spans — tunnel re-derivation
    and FIB reinstall.
``other``
    residual between the phase sum and ``total`` (workload scheduling,
    probe time before the first delivered packet).
``total``
    ``t0`` until the end of the first ``forward`` span under the
    epoch's ``phase="recovered"`` workload that reports
    ``outcome="delivered"``.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.analyze.reader import (Event, SpanForest, SpanNode, as_float,
                                  as_str, build_span_forest,
                                  iter_trace_events)
from repro.obs.spans import SPAN_END, SPAN_START
from repro.obs.tracer import RUN_END, RUN_START
from repro.schema import validate

#: Schema tag stamped into every report document.
REPORT_SCHEMA = "repro.report/v1"

#: Terminal outcomes that mean "the packet silently vanished".
BLACKHOLE_OUTCOMES = frozenset({"no-route", "no-vn-handler", "fault-dropped",
                                "dropped"})

#: Terminal outcomes that mean "the packet cycled until killed".
LOOP_OUTCOMES = frozenset({"loop", "ttl-expired"})

#: Per-packet span kinds aggregated instead of stored in the forest.
_AGGREGATED_SPANS = frozenset({"forward", "forward.multicast"})

#: How many example drops each detector keeps (bounded memory).
_MAX_EXAMPLES = 10


class _Dist:
    """Streaming distribution: count/min/max plus Welford mean/stddev."""

    __slots__ = ("count", "_min", "_max", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "stddev": 0.0}
        return {"count": float(self.count), "min": self._min,
                "max": self._max, "mean": self._mean,
                "stddev": math.sqrt(self._m2 / self.count)}


def _bump(counts: Dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


class _Collector:
    """Single-pass trace state: structural spans + streamed aggregates."""

    def __init__(self) -> None:
        self.context: Dict[str, object] = {}
        self.trace_schema: Optional[str] = None
        self.event_count = 0
        self.run_ended = False
        # Structural span forest (per-packet spans are skipped).
        self._structural: List[Event] = []
        # Live map: workload span_id -> (epoch span_id, phase).
        self._workload_phase: Dict[str, Tuple[str, str]] = {}
        # Live map: in-flight forward span_id -> (epoch span_id, phase).
        self._forward_phase: Dict[str, Tuple[str, str]] = {}
        # Per (epoch span_id, phase): outcome counts.
        self.phase_outcomes: Dict[Tuple[str, str], Dict[str, int]] = {}
        # Per epoch span_id: t of the first recovered delivered forward.
        self.first_recovered_delivery: Dict[str, float] = {}
        # Forwarding aggregates.
        self.packets = 0
        self.outcomes: Dict[str, int] = {}
        self.hop_dists: Dict[str, _Dist] = {
            name: _Dist() for name in ("physical_hops", "vn_hops",
                                       "encapsulations", "decapsulations",
                                       "max_depth", "latency")}
        self.blackhole_counts: Dict[str, int] = {}
        self.blackhole_examples: List[Dict[str, object]] = []
        self.loop_counts: Dict[str, int] = {}
        self.loop_examples: List[Dict[str, object]] = []
        # reach.probe aggregates.
        self.probes = 0
        self.probe_outcomes: Dict[str, int] = {}
        self.stretch = _Dist()
        # Optional (trace schema v3+): pre-v3 traces never emitted
        # delay_stretch, so the dist just stays empty (count 0).
        self.delay_stretch = _Dist()
        self.probe_encap = _Dist()
        # metric.sample timeline.
        self.timeline: List[Dict[str, object]] = []

    # -- per-event dispatch --------------------------------------------------
    def feed(self, event: Event) -> None:
        self.event_count += 1
        kind = event.get("kind")
        if kind == SPAN_START:
            self._on_span_start(event)
        elif kind == SPAN_END:
            self._on_span_end(event)
        elif kind == "reach.probe":
            self._on_probe(event)
        elif kind == "metric.sample":
            self._on_sample(event)
        elif kind == RUN_START:
            context = event.get("context")
            if isinstance(context, dict):
                self.context = context
            self.trace_schema = as_str(event.get("schema"))
        elif kind == RUN_END:
            self.run_ended = True

    def _on_span_start(self, event: Event) -> None:
        name = as_str(event.get("name"))
        span_id = as_str(event.get("span_id"))
        if name is None or span_id is None:
            return
        if name == "forward":
            parent_id = as_str(event.get("parent_id"))
            if parent_id is not None and parent_id in self._workload_phase:
                self._forward_phase[span_id] = self._workload_phase[parent_id]
            return
        if name in _AGGREGATED_SPANS:
            return
        self._structural.append(event)
        if name == "fault.workload":
            parent_id = as_str(event.get("parent_id"))
            phase = as_str(event.get("phase"))
            if parent_id is not None and phase is not None:
                self._workload_phase[span_id] = (parent_id, phase)

    def _on_span_end(self, event: Event) -> None:
        span_id = as_str(event.get("span_id"))
        name = as_str(event.get("name"))
        if span_id is None:
            return
        if name == "forward":
            self._on_forward_end(event, span_id)
            return
        if name in _AGGREGATED_SPANS:
            return
        self._structural.append(event)
        self._workload_phase.pop(span_id, None)

    def _on_forward_end(self, event: Event, span_id: str) -> None:
        self.packets += 1
        outcome = as_str(event.get("outcome")) or "unknown"
        _bump(self.outcomes, outcome)
        for field, dist in self.hop_dists.items():
            value = as_float(event.get(field))
            if value is not None:
                dist.add(value)
        if outcome in BLACKHOLE_OUTCOMES:
            _bump(self.blackhole_counts, outcome)
            self._example(self.blackhole_examples, event, outcome)
        elif outcome in LOOP_OUTCOMES:
            _bump(self.loop_counts, outcome)
            self._example(self.loop_examples, event, outcome)
        attribution = self._forward_phase.pop(span_id, None)
        if attribution is None:
            return
        epoch_id, phase = attribution
        _bump(self.phase_outcomes.setdefault((epoch_id, phase), {}), outcome)
        if phase == "recovered" and outcome == "delivered":
            t = as_float(event.get("t"))
            if t is not None and epoch_id not in self.first_recovered_delivery:
                self.first_recovered_delivery[epoch_id] = t

    @staticmethod
    def _example(bucket: List[Dict[str, object]], event: Event,
                 outcome: str) -> None:
        if len(bucket) >= _MAX_EXAMPLES:
            return
        example: Dict[str, object] = {"outcome": outcome}
        t = as_float(event.get("t"))
        if t is not None:
            example["t"] = t
        reason = as_str(event.get("drop_reason"))
        if reason:
            example["drop_reason"] = reason
        bucket.append(example)

    def _on_probe(self, event: Event) -> None:
        self.probes += 1
        _bump(self.probe_outcomes, as_str(event.get("outcome")) or "unknown")
        stretch = as_float(event.get("stretch"))
        if stretch is not None:
            self.stretch.add(stretch)
        delay_stretch = as_float(event.get("delay_stretch"))
        if delay_stretch is not None:
            self.delay_stretch.add(delay_stretch)
        encap = as_float(event.get("encapsulations"))
        if encap is not None:
            self.probe_encap.add(encap)

    def _on_sample(self, event: Event) -> None:
        entry: Dict[str, object] = {}
        t = as_float(event.get("t"))
        if t is not None:
            entry["t"] = t
        sample = event.get("sample")
        if isinstance(sample, int) and not isinstance(sample, bool):
            entry["sample"] = sample
        for key in ("counters", "gauges"):
            value = event.get(key)
            entry[key] = dict(value) if isinstance(value, dict) else {}
        self.timeline.append(entry)

    # -- post-pass assembly --------------------------------------------------
    def forest(self) -> SpanForest:
        return build_span_forest(self._structural)


def _clamp(value: float) -> float:
    return value if value > 0.0 else 0.0


def _critical_path(forest: SpanForest, epoch: SpanNode,
                   first_delivery: Optional[float]
                   ) -> Dict[str, Optional[float]]:
    """Phase breakdown for one ``fault.epoch`` span (see module doc)."""
    t0 = epoch.t_start if epoch.t_start is not None else 0.0
    subtree = list(forest.walk(epoch.span_id))
    holddown_end = t0
    reconverge_end: Optional[float] = None
    bgp_resync = 0.0
    rebuild_total = 0.0
    for node in subtree:
        if node.name == "igp.holddown" and node.t_end is not None:
            holddown_end = max(holddown_end, node.t_end)
        elif node.name == "fault.reconverge" and node.t_end is not None:
            reconverge_end = (node.t_end if reconverge_end is None
                              else max(reconverge_end, node.t_end))
        elif node.name == "vnbone.rebuild":
            duration = node.duration
            if duration is not None:
                rebuild_total += duration
            for child in forest.walk(node.span_id):
                if (child.name == "orchestrator.reconverge"
                        and child.duration is not None):
                    bgp_resync += child.duration
    igp_holddown = _clamp(holddown_end - t0)
    t_hd = t0 + igp_holddown
    igp_flood_spf = (_clamp(reconverge_end - t_hd)
                     if reconverge_end is not None else 0.0)
    vnbone_rebuild = _clamp(rebuild_total - bgp_resync)
    phases_sum = igp_holddown + igp_flood_spf + bgp_resync + vnbone_rebuild
    total: Optional[float] = None
    other: Optional[float] = None
    if first_delivery is not None:
        total = _clamp(first_delivery - t0)
        other = _clamp(total - phases_sum)
    return {"igp_holddown": igp_holddown, "igp_flood_spf": igp_flood_spf,
            "bgp_resync": bgp_resync, "vnbone_rebuild": vnbone_rebuild,
            "other": other, "total": total}


def _phase_delivery(outcomes: Optional[Dict[str, int]]
                    ) -> Optional[Dict[str, object]]:
    if outcomes is None:
        return None
    attempted = sum(outcomes.values())
    delivered = outcomes.get("delivered", 0)
    return {"attempted": attempted, "delivered": delivered,
            "delivery_ratio": delivered / attempted if attempted else 0.0,
            "outcomes": dict(sorted(outcomes.items()))}


def _epoch_entry(forest: SpanForest, epoch: SpanNode,
                 collector: _Collector) -> Dict[str, object]:
    first_delivery = collector.first_recovered_delivery.get(epoch.span_id)
    entry: Dict[str, object] = {
        "epoch": epoch.fields.get("epoch"),
        "t0": epoch.t_start,
        "t_end": epoch.t_end,
        "faults": epoch.end_fields.get("faults"),
        "reconverged_at": epoch.end_fields.get("reconverged_at"),
        "reconvergence_time": epoch.end_fields.get("reconvergence_time"),
        "first_recovered_delivery_t": first_delivery,
        "critical_path": _critical_path(forest, epoch, first_delivery),
        "transient": _phase_delivery(
            collector.phase_outcomes.get((epoch.span_id, "transient"))),
        "recovered": _phase_delivery(
            collector.phase_outcomes.get((epoch.span_id, "recovered"))),
    }
    return entry


def _span_summary(forest: SpanForest) -> Dict[str, object]:
    by_name: Dict[str, int] = {}
    unclosed = 0
    for node in forest.spans.values():
        _bump(by_name, node.name)
        if not node.ended:
            unclosed += 1
    return {"structural": len(forest.spans), "unclosed": unclosed,
            "by_name": dict(sorted(by_name.items()))}


def build_report(events: Union[str, "os.PathLike[str]", Iterable[Event]],
                 ) -> Dict[str, object]:
    """Build the ``repro.report/v1`` document for a trace.

    *events* is a trace file path (streamed line by line) or an already
    parsed event iterator.  One pass, bounded memory: only structural
    spans and fixed-size aggregates are retained.
    """
    if isinstance(events, (str, os.PathLike)):
        stream: Iterator[Event] = iter_trace_events(events)
    else:
        stream = iter(events)
    collector = _Collector()
    for event in stream:
        collector.feed(event)
    forest = collector.forest()
    epochs = sorted(forest.by_name("fault.epoch"),
                    key=lambda node: (node.t_start is None,
                                      node.t_start or 0.0, node.span_id))
    doc: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "run": {"context": collector.context,
                "trace_schema": collector.trace_schema,
                "events": collector.event_count,
                "complete": collector.run_ended},
        "spans": _span_summary(forest),
        "forwarding": {
            "packets": collector.packets,
            "outcomes": dict(sorted(collector.outcomes.items())),
            "distributions": {name: dist.summary()
                              for name, dist in
                              sorted(collector.hop_dists.items())},
            "blackholes": {
                "count": sum(collector.blackhole_counts.values()),
                "by_outcome": dict(sorted(collector.blackhole_counts.items())),
                "examples": collector.blackhole_examples},
            "loops": {
                "count": sum(collector.loop_counts.values()),
                "by_outcome": dict(sorted(collector.loop_counts.items())),
                "examples": collector.loop_examples},
        },
        "probes": {"count": collector.probes,
                   "outcomes": dict(sorted(collector.probe_outcomes.items())),
                   "stretch": collector.stretch.summary(),
                   "delay_stretch": collector.delay_stretch.summary(),
                   "encapsulations": collector.probe_encap.summary()},
        "epochs": [_epoch_entry(forest, epoch, collector)
                   for epoch in epochs],
        "timeline": collector.timeline,
    }
    return doc


def validate_report_dict(doc: object) -> List[str]:
    """Validate a parsed report document; returns problems (empty == OK).

    The CLI's ``report --check`` and the CI report-smoke job gate on it.
    """
    return validate(REPORT_SCHEMA, doc)


__all__ = ["BLACKHOLE_OUTCOMES", "LOOP_OUTCOMES", "REPORT_SCHEMA",
           "build_report", "validate_report_dict"]
