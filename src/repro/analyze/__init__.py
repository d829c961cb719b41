"""repro.analyze: the offline trace-analysis toolkit.

Consumes the JSONL traces :mod:`repro.obs` writes (schema
``repro.trace/v4`` with causal spans — see ``docs/tracing.md``) and
turns them into reports:

* **critical path** per fault epoch — sim-time from ``fault.apply`` to
  the first recovered delivery, broken down into IGP hold-down, LSA
  flood + SPF, BGP resync, and vN-Bone rebuild phases;
* **per-packet distributions** — path stretch and encapsulation
  overhead, streamed with Welford aggregation;
* **blackhole / loop detection** from forwarding spans alone;
* **convergence timeline** from the sampler's ``metric.sample`` events;
* **anycast catchment observatory** — per-fault-epoch vantage→replica
  catchment maps, shift/flap attribution, RTT-inflation CDF, and
  probe-observed convergence time from ``probe.rtt`` measurement
  events (schema ``repro.catchment/v1``, see ``docs/measurement.md``).

Everything is streaming: a trace is read line by line
(:func:`iter_trace_events`), high-volume ``forward`` spans are
aggregated rather than stored, and only the bounded structural spans
(epochs, convergence episodes, hold-down timers) are kept in memory —
so ROADMAP-scale traces (millions of events) analyze in bounded space.

The result is a schema-validated ``repro.report/v1`` document
(:func:`build_report` / :func:`validate_report_dict`) or a set of human
tables (:func:`render_report`), both exposed via
``python -m repro report``.
"""

from __future__ import annotations

from repro.analyze.catchment import (CATCHMENT_SCHEMA, build_catchment,
                                     catchment_from_trace, render_catchment,
                                     validate_catchment_dict)
from repro.analyze.reader import (SpanForest, SpanNode, build_span_forest,
                                  iter_trace_events, resolve_hops)
from repro.analyze.render import render_report
from repro.analyze.report import (REPORT_SCHEMA, build_report,
                                  validate_report_dict)

__all__ = ["CATCHMENT_SCHEMA", "REPORT_SCHEMA", "SpanForest", "SpanNode",
           "build_catchment", "build_report", "build_span_forest",
           "catchment_from_trace", "iter_trace_events", "render_catchment",
           "render_report", "resolve_hops", "validate_report_dict",
           "validate_catchment_dict"]
