"""The seven workloads.

Each function sets its world up, calls :meth:`Context.ready` at the
first timed operation, runs a fixed amount of work timed operation by
operation (packets in batches of :data:`~bench.registry.BATCH`), checks
the outputs, and returns an :class:`Outcome`.  Sizes are the nominal
ones times ``ctx.scale``; simulated statistics go in ``Outcome.sim``
and must repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.analyze import build_report
from repro.core.deployment import DeploymentSchedule
from repro.core.metrics import FaultEpochReport, ReachabilityReport
from repro.faults import FaultInjector
from repro.measure import ProbeEngine
from repro.net.forwarding import ForwardingTrace
from repro.net.packet import DEFAULT_TTL, ipv4_packet
from repro.obs import (Observability, Tracer, observing, validate_spans,
                       validate_trace)
from repro.vnbone.deployment import VnDeployment

from bench import inputs
from bench.registry import (BATCH, BUILD_BUDGET, CELL_BUDGET, CELL_SEED,
                            WARMUP_SHARE)
from bench.spans import NullRecorder
from bench.worlds import ADOPTERS, World, build_world, deploy

Pair = inputs.Pair
#: send(src host, dst host, ttl) -> the packet's trace
Send = Callable[[str, str, int], ForwardingTrace]

clock = time.perf_counter


class SetupDone(Exception):
    """Raised by :meth:`Context.ready` in a set-up-only process."""


@dataclass
class Context:
    """What one workload process was asked to do."""

    seed: int
    scale: float
    rec: NullRecorder
    out_dir: Path
    cell_budget: int = CELL_BUDGET
    build_budget: int = BUILD_BUDGET
    #: Send one packet that cannot arrive (the self-test's failure probe).
    inject_drop: bool = False
    setup_only: bool = False
    #: CLOCK_MONOTONIC at the first timed operation.
    ready_at: Optional[float] = None

    def ready(self) -> None:
        self.ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        if self.setup_only:
            raise SetupDone

    def count(self, nominal: int, floor: int = 1) -> int:
        return max(floor, round(nominal * self.scale))


@dataclass
class Outcome:
    #: Seconds per timed sample: one operation, or one batch of packets.
    op_seconds: List[float]
    ops_per_sample: int
    #: Timed work that is part of the phase but not of any sample
    #: (traced_ua: close, validate, report).
    other_seconds: List[float]
    attempted: int
    failed: int
    sizes: Dict[str, object]
    #: Simulated statistics; their digest must repeat for a seed.
    sim: Dict[str, object]
    #: Plain-int public stats read after the run (per-layer counts).
    counts: Dict[str, float] = field(default_factory=dict)



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def world_counts(world: World, deployment: Optional[VnDeployment] = None
                 ) -> Dict[str, float]:
    """Per-layer counts from the program's plain-int public stats."""
    orch = world.orch
    network = world.generated.network
    fast = orch.engine.fastpath.stats()
    paths = network.path_cache.stats()
    egress = orch.bgp.egress_cache.stats()
    counts: Dict[str, float] = {
        "topogen.nodes": len(network.nodes),
        "net.simulator.events": orch.scheduler.events_processed,
        "routing.igp_messages": sum(i.stats.sent for i in orch.igps.values()),
        "bgp.messages": orch.bgp.stats.sent,
        "bgp.install_fib_lookups": orch.bgp.install_fib_lookups,
        "bgp.egress_cache.hit_ratio": _ratio(
            egress["hits"], egress["hits"] + egress["misses"]),
        "net.fastpath.hits": fast["hits"],
        "net.fastpath.flows": fast["flows"],
        "net.fastpath.invalidations": fast["invalidations"],
        "perf.path_cache.hit_ratio": _ratio(
            paths["hits"], paths["hits"] + paths["misses"]),
        "perf.path_cache.invalidations": paths["invalidations"],
    }
    if deployment is not None:
        counts["vnbone.members"] = len(deployment.members())
        counts["vnbone.tunnels"] = len(deployment.tunnels)
    return counts


def _add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


class Traffic:
    """Sends host pairs in batches of BATCH, timing each batch."""

    def __init__(self, ctx: Context, send: Send) -> None:
        self.ctx = ctx
        self.send = send
        self.batch_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.hops = 0
        self.latency = 0.0

    def run(self, pairs: Iterable[Pair], timed: bool) -> None:
        send = self.send
        span = self.ctx.rec.span
        remaining = iter(pairs)
        while True:
            batch = list(islice(remaining, BATCH))
            if not batch:
                return
            failed = hops = 0
            latency = 0.0
            with span("bench.batch"):
                start = clock()
                for src, dst in batch:
                    trace = send(src, dst, DEFAULT_TTL)
                    # delivered_to is set only on delivery.
                    if trace.delivered_to != dst:
                        failed += 1
                    hops += trace.physical_hops
                    latency += trace.latency
                elapsed = clock() - start
            if timed:
                self.batch_seconds.append(elapsed)
            self.attempted += len(batch)
            self.failed += failed
            self.hops += hops
            self.latency += latency

    def drop_one(self, pair: Pair) -> None:
        """Send *pair* with a TTL of 1: the packet must not arrive."""
        trace = self.send(pair[0], pair[1], 1)
        self.attempted += 1
        if trace.delivered_to != pair[1]:
            self.failed += 1

    def warm_then_time(self, pairs: Iterable[Pair], total: int,
                       finish: Callable[[], None] = lambda: None) -> None:
        """Run the warm-up slice of the *total* pairs, mark the process
        ready, time the rest, and *finish* inside the timed phase."""
        remaining = iter(pairs)
        warm = BATCH * max(1, round(total * WARMUP_SHARE / BATCH))
        self.run(islice(remaining, warm), timed=False)
        self.ctx.ready()
        with self.ctx.rec.span("bench.timed"):
            if self.ctx.inject_drop:
                self.drop_one(next(remaining))
            self.run(remaining, timed=True)
            finish()

    def sim(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "physical_hops": self.hops, "latency": self.latency}

    def outcome(self, sizes: Dict[str, object], sim: Dict[str, object],
                counts: Dict[str, float],
                other_seconds: Sequence[float] = ()) -> Outcome:
        counts["net.forwarding.packets"] = self.attempted
        counts["net.forwarding.hops"] = self.hops
        return Outcome(self.batch_seconds, BATCH, list(other_seconds),
                       self.attempted, self.failed, sizes,
                       {**self.sim(), **sim}, counts)


def _whole_batches(count: int) -> int:
    """*count* cut to whole batches: at least one to warm up and one to time."""
    return max(2 * BATCH, count - count % BATCH)


def _repeat(flows: List[Pair], rounds: int) -> Tuple[Iterator[Pair], int]:
    """*rounds* round-robin passes over *flows*, cut to whole batches:
    the pairs and how many there are."""
    total = _whole_batches(len(flows) * rounds)
    return islice(cycle(flows), total), total


def _vn_send(deployment: VnDeployment) -> Send:
    send = deployment.send
    return lambda src, dst, ttl: send(src, dst, None, ttl)


def _v4_send(ctx: Context, world: World) -> Send:
    network = world.generated.network
    address = {host: network.node(host).ipv4 for host in world.hosts}
    forward = world.orch.engine.forward
    # The constructor is called from here, so it is wrapped here.
    make = ctx.rec.wrap("net.packet.build", ipv4_packet, hot=True)
    return lambda src, dst, ttl: forward(
        make(address[src], address[dst], None, ttl), src)


def _cell(ctx: Context) -> World:
    """The BENCH_PR9 1000-router cell: a fixture, the same for every seed."""
    return build_world(ctx.rec, ctx.cell_budget, CELL_SEED, ctx.seed)


# -- build ---------------------------------------------------------------------

def _fib_digest(world: World) -> str:
    network = world.generated.network
    digest = hashlib.sha256()
    for node_id in sorted(network.nodes):
        fib = getattr(network.node(node_id), "fib4", None)
        if fib is not None:
            digest.update(json.dumps([node_id, fib.snapshot()]).encode())
    return digest.hexdigest()


def build(ctx: Context) -> Outcome:
    """Cold worlds, each a different topology, built one by one.

    The topologies are fixtures like the cell (seeds ``CELL_SEED + i``):
    build time varies by 4 % with the topology, which would show as
    spread between seeds.  ``--seed`` draws the reachability check.
    """
    rec = ctx.rec
    worlds = ctx.count(3)
    with rec.span("bench.setup"):
        counts = world_counts(build_world(
            rec, max(50, ctx.build_budget // 5), CELL_SEED, ctx.seed))
    ctx.ready()
    samples: List[float] = []
    sims: List[Dict[str, object]] = []
    failed = 0
    for index in range(worlds):
        # The previous world is cyclic garbage; collecting it inside the
        # next build would charge it to the wrong operation.
        with rec.span("bench.gc"):
            gc.collect()
        with rec.span("bench.timed"):
            start = clock()
            world = build_world(rec, ctx.build_budget, CELL_SEED + index,
                                ctx.seed)
            samples.append(clock() - start)
        with rec.span("bench.check"):
            pairs = inputs.host_pairs(world.hosts, 20, ctx.seed, inputs.CHECK)
            probe = Traffic(ctx, _v4_send(ctx, world))
            probe.run(pairs, timed=False)
            failed += probe.failed > 0
            stats = world_counts(world)
            sims.append({"fib": _fib_digest(world), "checked": pairs,
                         **probe.sim(),
                         **{k: stats[k] for k in (
                             "topogen.nodes", "net.simulator.events",
                             "routing.igp_messages", "bgp.messages",
                             "bgp.install_fib_lookups")}})
            _add_counts(counts, stats)
        del world, probe
    for key in ("bgp.egress_cache.hit_ratio", "perf.path_cache.hit_ratio"):
        counts[key] /= worlds + 1
    sizes = {"worlds": worlds, "router_budget": ctx.build_budget,
             "nodes_per_world": sims[0]["topogen.nodes"]}
    return Outcome(samples, 1, [], worlds, failed, sizes,
                   {"worlds": sims}, counts)


# -- packet workloads ----------------------------------------------------------

def ua_traffic(ctx: Context) -> Outcome:
    """IPvN packets between hosts of non-adopting stubs."""
    with ctx.rec.span("bench.setup"):
        world = _cell(ctx)
        deployment = deploy(ctx.rec, world, "default", ADOPTERS)
        flows = inputs.host_pairs(world.hosts, 1500, ctx.seed)
        rounds = ctx.count(20)
        traffic = Traffic(ctx, _vn_send(deployment))
    traffic.warm_then_time(*_repeat(flows, rounds))
    sizes = {"flows": len(flows), "rounds": rounds,
             "packets": traffic.attempted,
             "members": len(deployment.members()),
             "tunnels": len(deployment.tunnels)}
    return traffic.outcome(sizes, {}, world_counts(world, deployment))


def _v4_outcome(traffic: Traffic, world: World,
                sizes: Dict[str, object]) -> Outcome:
    """The fast path's hit and flow counts are simulated statistics here."""
    counts = world_counts(world)
    sim = {"fastpath_hits": counts["net.fastpath.hits"],
           "fastpath_flows": counts["net.fastpath.flows"]}
    return traffic.outcome({**sizes, "packets": traffic.attempted}, sim,
                           counts)


def v4_repeat(ctx: Context) -> Outcome:
    """Few IPv4 flows, each repeated many times."""
    with ctx.rec.span("bench.setup"):
        world = _cell(ctx)
        flows = inputs.host_pairs(world.hosts, 400, ctx.seed)
        rounds = ctx.count(2800)
        traffic = Traffic(ctx, _v4_send(ctx, world))
    traffic.warm_then_time(*_repeat(flows, rounds))
    return _v4_outcome(traffic, world, {"flows": len(flows), "rounds": rounds})


def v4_unique(ctx: Context) -> Outcome:
    """Distinct ordered host pairs, one IPv4 packet each."""
    with ctx.rec.span("bench.setup"):
        world = _cell(ctx)
        pairs = inputs.distinct_pairs(world.hosts, ctx.count(36_000),
                                      ctx.seed)
        pairs = pairs[:_whole_batches(len(pairs))]
        traffic = Traffic(ctx, _v4_send(ctx, world))
    traffic.warm_then_time(pairs, len(pairs))
    return _v4_outcome(traffic, world, {"pairs": len(pairs)})


def traced_ua(ctx: Context) -> Outcome:
    """ua_traffic under the program's tracer, then validate and report."""
    rec = ctx.rec
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = ctx.out_dir / f"traced_ua-{os.getpid()}.trace.jsonl"
    try:
        with rec.span("bench.setup"):
            obs = Observability(tracer=Tracer(
                str(trace_path), context={"seed": ctx.seed}))
            with observing(obs):
                world = _cell(ctx)
                deployment = deploy(rec, world, "default", ADOPTERS)
            flows = inputs.host_pairs(world.hosts, 1500, ctx.seed)
            rounds = ctx.count(11)
            traffic = Traffic(ctx, _vn_send(deployment))
        errors: List[str] = []
        report: Dict[str, object] = {}
        other: List[float] = []

        def step(name: str, fn: Callable, *args: object) -> object:
            start = clock()
            result = rec.call(name, fn, *args)
            other.append(clock() - start)
            return result

        def close_and_analyse() -> None:
            """The rest of the timed phase, one sample per step."""
            step("obs.close", obs.close)
            errors.extend(step("analyze.validate", _validate,
                               str(trace_path)))  # type: ignore[arg-type]
            report.update(step("analyze.report", build_report,
                               str(trace_path)))  # type: ignore[call-overload]

        traffic.warm_then_time(*_repeat(flows, rounds), close_and_analyse)
        trace_bytes = trace_path.stat().st_size
    finally:
        trace_path.unlink(missing_ok=True)
    forwarding = report["forwarding"]
    delivered = forwarding["outcomes"].get("delivered", 0)  # type: ignore[index]
    if errors or delivered != traffic.attempted - traffic.failed:
        traffic.failed = max(traffic.failed, 1)
    counts = world_counts(world, deployment)
    counts["obs.events"] = report["run"]["events"]  # type: ignore[index]
    counts["obs.bytes_per_packet"] = trace_bytes / traffic.attempted
    sizes = {"flows": len(flows), "rounds": rounds,
             "packets": traffic.attempted, "trace_bytes": trace_bytes}
    sim = {"validator_errors": len(errors), "trace_events": counts["obs.events"],
           "report_forwarding": forwarding, "report_spans": report["spans"]}
    return traffic.outcome(sizes, sim, counts, other)


def _validate(path: str) -> List[str]:
    return validate_trace(path) + validate_spans(path)


# -- fault_churn ---------------------------------------------------------------

def _vn_reachability(deployment: VnDeployment, pairs: Sequence[Pair]
                     ) -> ReachabilityReport:
    """Delivery counts only: ``core.metrics.measure_reachability`` also
    computes each packet's stretch with a Dijkstra per source, which after
    every topology change costs more than the epoch it measures."""
    report = ReachabilityReport()
    for src, dst in pairs:
        trace = deployment.send(src, dst)
        report.attempted += 1
        if trace.delivered and trace.delivered_to == dst:
            report.delivered += 1
        else:
            key = trace.outcome.value
            report.failures[key] = report.failures.get(key, 0) + 1
    return report


def fault_churn(ctx: Context) -> Outcome:
    """A seeded fault plan replayed under IPvN traffic and probing."""
    rec = ctx.rec
    with rec.span("bench.setup"):
        world = _cell(ctx)
        orch = world.orch
        network = world.generated.network
        deployment = deploy(rec, world, "default", ADOPTERS)
        transit = {router for asn in world.generated.transit
                   for router in world.generated.routers_by_asn[asn]}
        core_links = sorted(key for key in network.links
                            if key[0] in transit and key[1] in transit)
        inner_members = sorted(
            m for m in deployment.members()
            if m not in network.domain_of(m).border_routers)
        link_pairs = ctx.count(8)
        warmup, plan, victim = inputs.fault_plans(
            core_links, inner_members, link_pairs, ctx.seed)
        pairs = inputs.host_pairs(world.hosts, 100, ctx.seed)
        stamps: List[float] = []

        def workload() -> ReachabilityReport:
            report = _vn_reachability(deployment, pairs)
            stamps.append(clock())
            return report

        plan_end = plan.events()[-1].time
        probes = rec.call(
            "measure.init", ProbeEngine, orch.scheduler, orch.engine, network,
            inputs.probe_plan(world.hosts, 8, deployment.scheme.address,
                              plan_end + inputs.FAULT_GAP, ctx.seed),
            replicas=deployment.live_members)
        injector = rec.call("faults.init", FaultInjector, orch, plan,
                            deployments=[deployment])
        probes.on_advance = rec.wrap("measure.on_advance", probes.on_advance,
                                     hot=True)
        injector.play = rec.wrap("faults.play", injector.play)
        FaultInjector(orch, warmup, deployments=[deployment]).play(workload)
        stamps.clear()
    ctx.ready()
    with rec.span("bench.timed"):
        start = clock()
        rec.call("measure.arm", probes.arm)
        reports: List[FaultEpochReport] = injector.play(workload)
        rec.call("measure.finish", probes.finish)
    ends = stamps[1::2]
    samples = [end - begin for begin, end in zip([start] + ends, ends)]
    # Odd epochs repair the fault of the epoch before: the world is whole.
    failed = sum(1 for report in reports[1::2]
                 if report.recovered.delivered < report.recovered.attempted)
    crash, recover = reports[-2], reports[-1]
    members = deployment.members()
    for sample in probes.samples:
        if sample.replica is None:
            continue
        dead = (sample.replica == victim
                and crash.reconverged_at < sample.t < recover.time)
        if dead or sample.replica not in members:
            failed += 1
            break
    recovered = [report.recovered for report in reports]
    counts = world_counts(world, deployment)
    counts["faults.epochs"] = len(reports)
    counts["faults.reconverge_events"] = sum(r.events_processed
                                             for r in reports)
    counts["faults.recovered_loss_share"] = _ratio(
        sum(r.attempted - r.delivered for r in recovered),
        sum(r.attempted for r in recovered))
    counts["measure.samples"] = len(probes.samples)
    sizes = {"epochs": len(reports), "link_pairs": link_pairs,
             "pairs_per_phase": len(pairs),
             "probe_vantages": len(probes.plan.vantages),
             "probe_rounds": probes.plan.rounds}
    sim = {"epochs": [report.to_dict() for report in reports],
           "probes": probes.series(),
           "messages": orch.message_totals()}
    return Outcome(samples, 1, [], len(reports), failed, sizes, sim,
                   counts)


# -- rollout -------------------------------------------------------------------

def rollout(ctx: Context) -> Outcome:
    """Transit ASes adopt one per step under the global anycast scheme."""
    rec = ctx.rec
    with rec.span("bench.setup"):
        world = _cell(ctx)
        deployment = deploy(rec, world, "global", adopters=0)
        steps = min(len(world.generated.transit), ctx.count(20, floor=2))
        order = DeploymentSchedule.core_first(
            world.generated.network, limit=steps).asns()
        pairs = inputs.host_pairs(world.hosts, 50, ctx.seed, inputs.CHECK)
        send = _vn_send(deployment)
    ctx.ready()
    samples: List[float] = []
    sims: List[Dict[str, object]] = []
    failed = 0
    with rec.span("bench.timed"):
        for asn in order:
            check = Traffic(ctx, send)
            with rec.span("bench.step"):
                start = clock()
                deployment.deploy(asn)
                deployment.rebuild()
                check.run(pairs, timed=False)
                samples.append(clock() - start)
            failed += check.failed > 0
            sims.append({"asn": asn, "members": len(deployment.members()),
                         "tunnels": len(deployment.tunnels), **check.sim()})
    sizes = {"steps": len(order), "check_pairs": len(pairs),
             "members_first": sims[0]["members"],
             "members_last": sims[-1]["members"]}
    sim = {"steps": sims, "messages": world.orch.message_totals(),
           "vn_routes": sum(deployment.vn_fib_sizes().values())}
    return Outcome(samples, 1, [], len(order), failed, sizes, sim,
                   world_counts(world, deployment))


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "build": build, "ua_traffic": ua_traffic, "v4_repeat": v4_repeat,
    "v4_unique": v4_unique, "fault_churn": fault_churn, "rollout": rollout,
    "traced_ua": traced_ua,
}
