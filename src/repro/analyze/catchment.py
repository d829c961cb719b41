"""The anycast catchment observatory: ``repro.catchment/v1``.

One streaming pass over a probe measurement — either ``probe.rtt``
trace events plus ``fault.apply`` boundaries read from a JSONL trace
(:func:`catchment_from_trace`), or in-memory
:class:`~repro.measure.engine.ProbeSample` dicts plus
:class:`~repro.faults.injector.FaultRecord` boundaries straight from a
scenario (:func:`build_catchment`) — folded into one schema-validated
document:

* **per-epoch catchment maps** — which replica served each
  (vantage, target) pair, where an epoch is the interval between fault
  boundaries (epoch 0 is the pre-fault baseline);
* **shift detection** — catchment changes *across* an epoch boundary:
  the expected, fault-attributed failovers;
* **flap detection** — catchment changes *within* an epoch, i.e. not
  aligned to any fault boundary: the anomalies an operator would page
  on;
* **RTT-inflation CDF** — observed RTT over the oracle's best-replica
  RTT at probe time (nearest-rank percentiles);
* **probe-observed convergence time** — per fault epoch, sim time from
  the boundary to the first probe round in which every probe was
  delivered (what a user measures, as opposed to the control plane's
  own reconvergence accounting).

Epoch assignment is by time, with the tie the scheduler guarantees:
a probe round due exactly at a fault boundary fires *before* the fault
applies (``run_until(t)`` advances the clock — firing due probes —
before the injector touches the topology), so a sample at ``t`` equal
to a boundary belongs to the epoch *before* that boundary.  Counting
boundaries strictly below the sample's ``t`` encodes exactly that.

The document carries no span ids, no ``seq`` numbers, no wall-clock
fields, and no file paths: same-seed runs produce byte-identical
catchment reports at any worker count, and whether the flow fast path
walks or replays each probe.
"""

from __future__ import annotations

import bisect
import math
import os
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.analyze.reader import Event, as_float, as_str, iter_trace_events
from repro.obs.tracer import RUN_START
from repro.schema import validate

#: Schema tag stamped into every catchment document.
CATCHMENT_SCHEMA = "repro.catchment/v1"

#: Nearest-rank percentiles of the RTT-inflation CDF.
_INFLATION_PERCENTILES = (50, 90, 99)


def _percentile(sorted_values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile of an already-sorted non-empty series."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100.0))
    return sorted_values[rank - 1]


def _dist_summary(values: Sequence[float]) -> Dict[str, float]:
    """count/min/max/mean/stddev, matching the report ``_Dist`` keys."""
    if not values:
        return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "stddev": 0.0}
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return {"count": float(len(values)), "min": min(values),
            "max": max(values), "mean": mean, "stddev": math.sqrt(var)}


class _Sample:
    """One probe observation, narrowed from an event/sample mapping."""

    __slots__ = ("t", "vantage", "target", "replica", "rtt", "best_rtt",
                 "best_replica", "delivered")

    def __init__(self, t: float, vantage: str, target: str,
                 replica: Optional[str], rtt: Optional[float],
                 best_rtt: Optional[float],
                 best_replica: Optional[str]) -> None:
        self.t = t
        self.vantage = vantage
        self.target = target
        self.replica = replica
        self.rtt = rtt
        self.best_rtt = best_rtt
        self.best_replica = best_replica
        self.delivered = replica is not None


def _narrow_sample(raw: Mapping[str, object]) -> Optional[_Sample]:
    t = as_float(raw.get("t"))
    vantage = as_str(raw.get("vantage"))
    target = as_str(raw.get("target"))
    if t is None or vantage is None or target is None:
        return None
    return _Sample(t=t, vantage=vantage, target=target,
                   replica=as_str(raw.get("replica")),
                   rtt=as_float(raw.get("rtt")),
                   best_rtt=as_float(raw.get("best_rtt")),
                   best_replica=as_str(raw.get("best_replica")))


class _Epoch:
    """Accumulator for one inter-boundary interval."""

    def __init__(self, index: int, t_start: Optional[float],
                 descriptions: List[str]) -> None:
        self.index = index
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.descriptions = descriptions
        self.probes = 0
        self.delivered = 0
        # (vantage, target) -> last delivered replica in this epoch.
        self.catchment: Dict[Tuple[str, str], str] = {}
        self.shifts: List[Dict[str, object]] = []
        # round t -> [delivered?, ...] for convergence detection.
        self.rounds: Dict[float, List[bool]] = {}

    def convergence_time(self) -> Optional[float]:
        """Sim time from the boundary to the first all-delivered round."""
        if self.t_start is None:
            return None
        for t in sorted(self.rounds):
            flags = self.rounds[t]
            if flags and all(flags):
                return t - self.t_start
        return None

    def to_dict(self) -> Dict[str, object]:
        nested: Dict[str, Dict[str, Optional[str]]] = {}
        for (vantage, target), replica in sorted(self.catchment.items()):
            nested.setdefault(vantage, {})[target] = replica
        return {"epoch": self.index,
                "t_start": self.t_start,
                "t_end": self.t_end,
                "boundaries": list(self.descriptions),
                "probes": self.probes,
                "delivered": self.delivered,
                "catchment": nested,
                "shifts": self.shifts,
                "convergence_time": self.convergence_time()}


def build_catchment(samples: Iterable[Mapping[str, object]],
                    boundaries: Sequence[Mapping[str, object]],
                    context: Optional[Mapping[str, object]] = None
                    ) -> Dict[str, object]:
    """Fold probe samples + fault boundaries into a catchment document.

    *samples* are ``probe.rtt`` event dicts or
    ``ProbeSample.to_dict()`` dicts (same keys; unknown keys are
    ignored).  *boundaries* are ``{"t": float, "description": str}``
    dicts in application order (e.g. from
    ``FaultInjector.records``).  *context* lands verbatim under
    ``run.context``.
    """
    # Group boundaries into epochs by (strictly increasing) time.
    epoch_times: List[float] = []
    epochs: List[_Epoch] = [_Epoch(0, None, [])]
    for boundary in boundaries:
        t = as_float(boundary.get("t"))
        description = as_str(boundary.get("description")) or ""
        if t is None:
            continue
        if not epoch_times or t > epoch_times[-1]:
            epoch_times.append(t)
            epochs[-1].t_end = t
            epochs.append(_Epoch(len(epochs), t, []))
        epochs[-1].descriptions.append(description)

    # (vantage, target) -> (epoch index, replica) of the last delivered
    # observation, for shift/flap attribution.
    last_seen: Dict[Tuple[str, str], Tuple[int, str]] = {}
    flap_events: List[Dict[str, object]] = []
    rtts: List[float] = []
    inflations: List[float] = []
    vantages: List[str] = []
    targets: List[str] = []
    total = 0
    delivered_total = 0

    for raw in samples:
        sample = _narrow_sample(raw)
        if sample is None:
            continue
        total += 1
        # A sample at t equal to a boundary fired before the fault
        # applied, so only strictly earlier boundaries count.
        index = bisect.bisect_left(epoch_times, sample.t)
        epoch = epochs[index]
        epoch.probes += 1
        epoch.rounds.setdefault(sample.t, []).append(sample.delivered)
        if sample.vantage not in vantages:
            vantages.append(sample.vantage)
        if sample.target not in targets:
            targets.append(sample.target)
        if not sample.delivered or sample.replica is None:
            continue
        delivered_total += 1
        epoch.delivered += 1
        if sample.rtt is not None:
            rtts.append(sample.rtt)
            if sample.best_rtt is not None and sample.best_rtt > 0:
                inflations.append(sample.rtt / sample.best_rtt)
        key = (sample.vantage, sample.target)
        previous = last_seen.get(key)
        if previous is not None and previous[1] != sample.replica:
            change: Dict[str, object] = {
                "t": sample.t, "vantage": sample.vantage,
                "target": sample.target, "from": previous[1],
                "to": sample.replica}
            if previous[0] == index:
                # Same epoch: no fault boundary between the two
                # observations — a flap.
                flap_events.append(change)
            else:
                epoch.shifts.append(change)
        last_seen[key] = (index, sample.replica)
        epoch.catchment[key] = sample.replica

    inflations.sort()
    inflation_summary: Dict[str, float] = {"count": float(len(inflations))}
    if inflations:
        inflation_summary["min"] = inflations[0]
        inflation_summary["max"] = inflations[-1]
        inflation_summary["mean"] = sum(inflations) / len(inflations)
        for pct in _INFLATION_PERCENTILES:
            inflation_summary[f"p{pct}"] = _percentile(inflations, pct)
    else:
        inflation_summary.update({"min": 0.0, "max": 0.0, "mean": 0.0})
        for pct in _INFLATION_PERCENTILES:
            inflation_summary[f"p{pct}"] = 0.0

    return {"schema": CATCHMENT_SCHEMA,
            "run": {"context": dict(context or {})},
            "probes": {"count": total,
                       "delivered": delivered_total,
                       "lost": total - delivered_total,
                       "vantages": vantages,
                       "targets": targets},
            "epochs": [epoch.to_dict() for epoch in epochs],
            "shifts": {"count": sum(len(e.shifts) for e in epochs)},
            "flaps": {"count": len(flap_events), "events": flap_events},
            "rtt": _dist_summary(rtts),
            "rtt_inflation": inflation_summary}


def catchment_from_trace(events: Union[str, "os.PathLike[str]",
                                       Iterable[Event]]
                         ) -> Dict[str, object]:
    """Build a catchment document from a JSONL trace (path or events).

    Extracts ``probe.rtt`` samples, ``fault.apply`` boundaries, and the
    ``run.start`` context in one streaming pass; everything else in the
    trace is ignored.  The result is byte-identical (as sorted-key
    JSON) to :func:`build_catchment` fed the same samples, boundaries,
    and context directly.
    """
    if isinstance(events, (str, os.PathLike)):
        stream: Iterator[Event] = iter_trace_events(events)
    else:
        stream = iter(events)
    samples: List[Event] = []
    boundaries: List[Dict[str, object]] = []
    context: Dict[str, object] = {}
    for event in stream:
        kind = event.get("kind")
        if kind == "probe.rtt":
            samples.append(event)
        elif kind == "fault.apply":
            t = as_float(event.get("t"))
            if t is not None:
                boundaries.append(
                    {"t": t,
                     "description": as_str(event.get("description")) or ""})
        elif kind == RUN_START:
            raw_context = event.get("context")
            if isinstance(raw_context, dict):
                context = raw_context
    return build_catchment(samples, boundaries, context)


# -- validation ---------------------------------------------------------------

def validate_catchment_dict(doc: object) -> List[str]:
    """Validate a parsed catchment document; returns problems."""
    errors = validate(CATCHMENT_SCHEMA, doc)
    if isinstance(doc, dict) and doc.get("epochs") == []:
        # Epoch 0, the pre-fault baseline, exists even with no samples.
        errors.append("epochs: expected non-empty list")
    return errors


# -- rendering ----------------------------------------------------------------

def render_catchment(doc: Mapping[str, object]) -> str:
    """Human-readable rendering of a catchment document."""
    lines: List[str] = []
    probes = doc.get("probes")
    if isinstance(probes, Mapping):
        lines.append(f"probes: {probes.get('count')} sent, "
                     f"{probes.get('delivered')} delivered, "
                     f"{probes.get('lost')} lost")
    rtt = doc.get("rtt")
    if isinstance(rtt, Mapping) and rtt.get("count"):
        lines.append(f"rtt: mean {rtt.get('mean'):.2f} "
                     f"[{rtt.get('min'):.2f}, {rtt.get('max'):.2f}]")
    inflation = doc.get("rtt_inflation")
    if isinstance(inflation, Mapping) and inflation.get("count"):
        lines.append(f"rtt inflation: p50 {inflation.get('p50'):.3f}  "
                     f"p90 {inflation.get('p90'):.3f}  "
                     f"p99 {inflation.get('p99'):.3f}")
    epochs = doc.get("epochs")
    if isinstance(epochs, Sequence) and not isinstance(epochs, str):
        for entry in epochs:
            if not isinstance(entry, Mapping):
                continue
            index = entry.get("epoch")
            t_start = entry.get("t_start")
            head = (f"epoch {index} (baseline)" if t_start is None
                    else f"epoch {index} (t={t_start:g})")
            convergence = entry.get("convergence_time")
            tail = ("" if convergence is None
                    else f", converged in {convergence:g}")
            lines.append(f"{head}: {entry.get('delivered')}/"
                         f"{entry.get('probes')} delivered{tail}")
            boundaries = entry.get("boundaries")
            if isinstance(boundaries, Sequence):
                for description in boundaries:
                    lines.append(f"  fault: {description}")
            catchment = entry.get("catchment")
            if isinstance(catchment, Mapping):
                for vantage, row in sorted(catchment.items()):
                    if not isinstance(row, Mapping):
                        continue
                    cells = ", ".join(f"{target} -> {replica}"
                                      for target, replica
                                      in sorted(row.items()))
                    lines.append(f"  {vantage}: {cells}")
            shifts = entry.get("shifts")
            if isinstance(shifts, Sequence) and not isinstance(shifts, str):
                for shift in shifts:
                    if isinstance(shift, Mapping):
                        lines.append(
                            f"  shift: {shift.get('vantage')} -> "
                            f"{shift.get('target')} moved "
                            f"{shift.get('from')} => {shift.get('to')}")
    flaps = doc.get("flaps")
    if isinstance(flaps, Mapping):
        count = flaps.get("count")
        lines.append(f"flaps (changes not aligned to a fault boundary): "
                     f"{count}")
        events = flaps.get("events")
        if isinstance(events, Sequence) and not isinstance(events, str):
            for flap in events:
                if isinstance(flap, Mapping):
                    lines.append(f"  flap at t={flap.get('t')}: "
                                 f"{flap.get('vantage')} -> "
                                 f"{flap.get('target')} moved "
                                 f"{flap.get('from')} => {flap.get('to')}")
    return "\n".join(lines)


__all__ = ["CATCHMENT_SCHEMA", "build_catchment", "catchment_from_trace",
           "render_catchment", "validate_catchment_dict"]
