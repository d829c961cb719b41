"""Per-layer metrics of one traced workload process.

Times come from the recorder's spans over the whole process (set-up
included: ``topogen.generate_s`` moves ``setup_s`` on every workload but
``build``); ``timed_share.*`` is each layer's self time inside the
``bench.timed`` spans as a share of their duration.  Counts come from the
program's public stats (``Outcome.counts``).  The two ratios that need a
second, untraced process are filled in by the harness.
"""

from __future__ import annotations

import statistics
from typing import Dict

from bench.registry import CROSS_RUN, PER_LAYER
from bench.spans import DRAIN_NAMES, Recorder
from bench.workloads import Outcome

def _per(total: float, count: float, unit: float = 1e6) -> float:
    return total / count * unit if count else 0.0


def per_layer(rec: Recorder, outcome: Outcome, calib_s: float,
              wall_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except :data:`CROSS_RUN`."""
    totals = rec.totals()

    def dur(name: str) -> float:
        return totals[name][1] if name in totals else 0.0

    def own(name: str) -> float:
        return totals[name][2] if name in totals else 0.0

    def calls(name: str) -> int:
        return totals[name][0] if name in totals else 0

    counts = outcome.counts
    forwards = calls("net.forwarding.forward")
    hops = counts.get("net.forwarding.hops", 0)
    packets = counts.get("net.forwarding.packets", 0)
    hit_ratio = _per(counts["net.fastpath.hits"], forwards, 1.0)
    batches = sorted(outcome.op_seconds) if outcome.ops_per_sample > 1 else []
    values: Dict[str, float] = {
        "topogen.generate_s": dur("topogen.generate"),
        "core.converge_self_s": own("core.converge"),
        "core.reconverge_self_s": own("core.reconverge"),
        "net.simulator.drain_s": sum(dur(name) for name in DRAIN_NAMES),
        "routing.igp_converge_s": (dur("routing.igp_start")
                                   + dur("routing.igp_drain")),
        "routing.igp_install_s": dur("routing.igp_install"),
        "routing.igp_refresh_s": dur("routing.igp_refresh"),
        "bgp.converge_s": dur("bgp.start") + dur("bgp.drain"),
        "bgp.install_s": dur("bgp.install"),
        "bgp.resync_s": dur("bgp.resync"),
        "net.forwarding.forward_us": _per(dur("net.forwarding.forward"),
                                          forwards),
        "net.forwarding.us_per_hop": _per(dur("net.forwarding.forward"), hops),
        "net.forwarding.hops_per_packet": _per(hops, packets, 1.0),
        "net.forwarding.slowpath_share": 1.0 - hit_ratio if forwards else 0.0,
        "net.forwarding.batch_p90_ms": (
            statistics.quantiles(batches, n=10)[8] * 1e3
            if len(batches) >= 10 else 0.0),
        "net.fastpath.hit_ratio": hit_ratio,
        "net.packet.build_us": _per(dur("net.packet.build"),
                                    calls("net.packet.build")),
        "vnbone.send_overhead_us": _per(own("vnbone.send"),
                                        calls("vnbone.send")),
        "vnbone.deploy_s": dur("vnbone.deploy"),
        "vnbone.rebuild_self_s": own("vnbone.rebuild"),
        "vnbone.topology_build_s": dur("vnbone.topology_build"),
        "vnbone.routing_compute_s": dur("vnbone.routing_compute"),
        "anycast.join_s": dur("anycast.join"),
        "anycast.post_install_s": dur("anycast.post_install"),
        "faults.play_self_s": own("faults.play"),
        "measure.probe_us": _per(dur("measure.on_advance"),
                                 counts.get("measure.samples", 0)),
        "obs.close_s": dur("obs.close"),
        "analyze.report_s": dur("analyze.report"),
        "analyze.validate_s": dur("analyze.validate"),
        "analyze.events_per_s": _per(counts.get("obs.events", 0),
                                     dur("analyze.report"), 1.0),
        "bench.spans": len(rec),
        "bench.calib_s": calib_s,
        "bench.attributed_share": _per(
            sum(rec.self_by_layer().values()), wall_s, 1.0),
    }
    timed_wall = dur("bench.timed")
    for layer, seconds in rec.self_by_layer("bench.timed").items():
        values[f"timed_share.{layer}"] = _per(seconds, timed_wall, 1.0)
    for metric in PER_LAYER:
        if metric.name not in values and metric.name not in CROSS_RUN:
            values[metric.name] = counts.get(metric.name, 0)
    return values
