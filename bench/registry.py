"""The names of the benchmark: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test (``bench/tests/test_smoke.py``) keeps the two equal.  Later
issues quote these names, so a rename here is an API change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Seconds one run measures at the nominal sizes on the reference machine:
#: REPS fresh processes with a timed phase of about RUN_SECONDS / REPS each.
#: ``--seconds`` scales the sizes from it.
RUN_SECONDS = 10
REPS = 2
#: Set-up samples a run takes (the repetitions, then set-up-only processes).
SETUP_SAMPLES = 3
#: Packets per timed batch (packet workloads time batches, not packets).
BATCH = 250
#: Share of a workload's operations run untimed before the first timed one.
WARMUP_SHARE = 0.05
#: The BENCH_PR9 cell: 1440 nodes, 460 ASes, 20 transit speakers, 440 hosts.
CELL_BUDGET = 1000
CELL_SEED = 42
BUILD_BUDGET = 3000


class Workload(NamedTuple):
    name: str
    operation: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0


WORKLOADS: Tuple[Workload, ...] = (
    Workload("build", "one cold world",
             "Control plane does all the work and forwarding none: topogen, "
             "full IGP+BGP convergence and full FIB install of a 4320-node "
             "world."),
    Workload("ua_traffic", "one IPvN packet",
             "The paper's dataplane: host in a non-adopting stub encapsulates "
             "to A_N, crosses the vN-Bone, leaves by an egress; slow path and "
             "vN handlers do everything."),
    Workload("v4_repeat", "one IPv4 packet",
             "400 flows repeated thousands of times: the traffic the flow "
             "fast path was built for (hit ratio above 0.99)."),
    Workload("v4_unique", "one IPv4 packet",
             "Distinct host pairs, one packet each: every packet misses the "
             "fast path, walks and is stored, so dearer misses or a bigger "
             "flow table show here."),
    Workload("fault_churn", "one fault epoch",
             "Seeded link down/up pairs and a member crash under IPvN traffic "
             "and anycast probing: incremental reconvergence, reinstall and "
             "vN-Bone rebuild at fixed membership."),
    Workload("rollout", "one adoption step",
             "Global-anycast adoption, one transit AS per step from 6 to 120 "
             "members: BGP origination, incremental install and a vN-Bone "
             "rebuild that grows with membership."),
    Workload("traced_ua", "one IPvN packet, traced and analysed",
             "ua_traffic under the program's own tracer, then trace "
             "validation and report: the price of watching."),
)

#: Every workload reports all six.  ``failed_share`` and ``sim_stable``
#: are 0 and 1 on a healthy run, so ``BENCHMARK.json`` carries them as the
#: result line's ``failed``/``attempted`` and ``correct`` instead of as
#: bounded metrics (a bound is a share of the parent's median).  The timing
#: bounds are what this sandbox's noise floor supports: identical code
#: drifts by 10 % over half an hour and by 20 % for a minute at a time
#: (README, "End-to-end metrics").
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_share", "fraction", "lower", 0.0),
    Metric("sim_stable", "0/1", "higher", 0.0),
)
#: The subset with a non-zero baseline, listed in ``BENCHMARK.json``.
BOUNDED_END_TO_END: Tuple[Metric, ...] = tuple(
    m for m in END_TO_END if m.bound > 0.0)

#: Self-time partition of a traced run; every span belongs to exactly one.
LAYERS: Tuple[str, ...] = (
    "topogen", "core", "net.simulator", "routing", "bgp", "net.forwarding",
    "net.packet", "vnbone", "anycast", "faults", "measure", "obs", "analyze",
    "bench")


PER_LAYER: Tuple[Metric, ...] = tuple([
    Metric("topogen.generate_s", "s", "lower"),
    Metric("topogen.nodes", "count", "lower"),
    Metric("core.converge_self_s", "s", "lower"),
    Metric("core.reconverge_self_s", "s", "lower"),
    Metric("net.simulator.events", "count", "lower"),
    Metric("net.simulator.drain_s", "s", "lower"),
    Metric("routing.igp_converge_s", "s", "lower"),
    Metric("routing.igp_install_s", "s", "lower"),
    Metric("routing.igp_refresh_s", "s", "lower"),
    Metric("routing.igp_messages", "count", "lower"),
    Metric("bgp.converge_s", "s", "lower"),
    Metric("bgp.install_s", "s", "lower"),
    Metric("bgp.install_fib_lookups", "count", "lower"),
    Metric("bgp.resync_s", "s", "lower"),
    Metric("bgp.messages", "count", "lower"),
    Metric("bgp.egress_cache.hit_ratio", "ratio", "higher"),
    Metric("net.forwarding.forward_us", "us", "lower"),
    Metric("net.forwarding.us_per_hop", "us", "lower"),
    Metric("net.forwarding.hops_per_packet", "count", "lower"),
    Metric("net.forwarding.slowpath_share", "ratio", "lower"),
    Metric("net.forwarding.batch_p90_ms", "ms", "lower"),
    Metric("net.fastpath.hit_ratio", "ratio", "higher"),
    Metric("net.fastpath.flows", "count", "lower"),
    Metric("net.fastpath.invalidations", "count", "lower"),
    Metric("net.packet.build_us", "us", "lower"),
    Metric("vnbone.send_overhead_us", "us", "lower"),
    Metric("vnbone.deploy_s", "s", "lower"),
    Metric("vnbone.rebuild_self_s", "s", "lower"),
    Metric("vnbone.topology_build_s", "s", "lower"),
    Metric("vnbone.tunnels", "count", "lower"),
    Metric("vnbone.members", "count", "lower"),
    Metric("vnbone.routing_compute_s", "s", "lower"),
    Metric("anycast.join_s", "s", "lower"),
    Metric("anycast.post_install_s", "s", "lower"),
    Metric("faults.play_self_s", "s", "lower"),
    Metric("faults.epochs", "count", "lower"),
    Metric("faults.reconverge_events", "count", "lower"),
    Metric("faults.recovered_loss_share", "ratio", "lower"),
    Metric("measure.probe_us", "us", "lower"),
    Metric("measure.samples", "count", "lower"),
    Metric("perf.path_cache.hit_ratio", "ratio", "higher"),
    Metric("perf.path_cache.invalidations", "count", "lower"),
    Metric("obs.events", "count", "lower"),
    Metric("obs.bytes_per_packet", "B", "lower"),
    Metric("obs.close_s", "s", "lower"),
    Metric("obs.emit_overhead_ratio", "ratio", "lower"),
    Metric("analyze.report_s", "s", "lower"),
    Metric("analyze.validate_s", "s", "lower"),
    Metric("analyze.events_per_s", "1/s", "higher"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
    Metric("bench.spans", "count", "lower"),
    Metric("bench.calib_s", "s", "lower"),
    Metric("bench.attributed_share", "ratio", "higher"),
] + [Metric(f"timed_share.{layer}", "ratio", "lower")
     for layer in LAYERS])


#: Per-layer ratios of a traced process to an untraced reference process;
#: the harness fills them in, every other one comes from the traced process.
CROSS_RUN = ("bench.trace_overhead_ratio", "obs.emit_overhead_ratio")


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these registries describe."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in BOUNDED_END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
