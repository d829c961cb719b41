"""Metrics for the paper's experiments.

Everything here is computed from real forwarding traces and converged
control-plane state — no oracles on the measurement path (oracles are
used only as *denominators*, e.g. the true shortest path for stretch).

The vocabulary mirrors the evaluation axes in DESIGN.md:

* **stretch** — trace path cost over the direct IPv4 shortest-path cost
  between the endpoints (how much the anycast + vN-Bone detour costs);
* **vN coverage / v(N-1) tail** — how much of a delivery the vN-Bone
  carried vs. how far the packet traveled as plain IPv(N-1) after its
  egress (Figure 3's quality axis);
* **universal access** — fraction of IPvN-aware host pairs that can
  communicate (the paper's central requirement);
* **routing state** — per-AS BGP table growth (the option 1 vs 2 vs
  GIA scalability comparison).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.measure.oracle import DelayOracle
from repro.net.forwarding import ForwardingTrace, Outcome
from repro.net.network import Network
from repro.obs import get_obs


def trace_path_cost(network: Network, trace: ForwardingTrace) -> float:
    """Sum of link costs along the trace's node path."""
    path = trace.node_path()
    total = 0.0
    for a, b in zip(path, path[1:]):
        link = network.link_between(a, b)
        if link is not None:
            total += link.cost
    return total


def path_stretch(network: Network, trace: ForwardingTrace, src: str,
                 dst: str) -> Optional[float]:
    """Trace cost / direct shortest-path cost; None if undeliverable."""
    if not trace.delivered:
        return None
    direct = network.shortest_path(src, dst)
    if direct is None:
        return None
    optimal, _ = direct
    if optimal == 0.0:
        return 1.0
    return trace_path_cost(network, trace) / optimal


def delay_stretch(oracle: DelayOracle, trace: ForwardingTrace, src: str,
                  dst: str) -> Optional[float]:
    """Trace latency / best possible one-way delay; None if undelivered.

    The delay-weighted sibling of :func:`path_stretch`: how much slower
    the walk was than the lowest-latency path the live topology offers.
    1.0 when the optimal delay is zero (src == dst).
    """
    if not trace.delivered:
        return None
    optimal = oracle.delay(src, dst)
    if optimal is None:
        return None
    if optimal == 0.0:
        return 1.0
    return trace.latency / optimal


def vn_tail_length(network: Network, trace: ForwardingTrace) -> Optional[int]:
    """Physical hops traveled *after* the packet left the vN-Bone.

    The quantity Figure 3 minimizes: a better egress choice shortens
    the plain-IPv(N-1) tail.  None when the packet never rode the
    vN-Bone or was not delivered.
    """
    if not trace.delivered or trace.egress_router is None:
        return None
    hops = 0
    seen_egress = False
    for record in trace.hops:
        if record.node_id == trace.egress_router and record.action == "vn-egress":
            seen_egress = True
            continue
        if seen_egress and record.action == "ipv4-forward":
            hops += 1
    return hops


def vn_coverage(trace: ForwardingTrace) -> Optional[float]:
    """Fraction of physical forwarding hops spent inside the vN-Bone.

    A hop counts as "inside" while the packet is in a vN-Bone tunnel —
    between a ``vn-forward`` and the next decapsulation.  Hops after a
    ``vn-egress`` (the IPv(N-1) tail) are outside, even though the
    packet is still encapsulated.
    """
    if trace.physical_hops == 0:
        return None
    inside = 0
    in_tunnel = False
    for record in trace.hops:
        if record.action == "vn-forward":
            in_tunnel = True
        elif record.action in ("decap", "vn-egress", "deliver", "vn-deliver"):
            in_tunnel = False
        elif record.action == "ipv4-forward" and in_tunnel:
            inside += 1
    return inside / trace.physical_hops


@dataclass
class ReachabilityReport:
    """Outcome counts over a set of (src, dst) delivery attempts."""

    attempted: int = 0
    delivered: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    stretches: List[float] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def mean_stretch(self) -> Optional[float]:
        return statistics.fmean(self.stretches) if self.stretches else None

    @property
    def median_stretch(self) -> Optional[float]:
        return statistics.median(self.stretches) if self.stretches else None

    @property
    def max_stretch(self) -> Optional[float]:
        return max(self.stretches) if self.stretches else None

    def record(self, network: Network, trace: ForwardingTrace, src: str,
               dst: str) -> None:
        self.attempted += 1
        if trace.delivered:
            self.delivered += 1
            stretch = path_stretch(network, trace, src, dst)
            if stretch is not None:
                self.stretches.append(stretch)
        else:
            key = trace.outcome.value
            self.failures[key] = self.failures.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (shared serialization contract)."""
        return {"attempted": self.attempted, "delivered": self.delivered,
                "delivery_ratio": self.delivery_ratio,
                "failures": dict(sorted(self.failures.items())),
                "mean_stretch": self.mean_stretch,
                "median_stretch": self.median_stretch,
                "max_stretch": self.max_stretch}


@dataclass
class FaultEpochReport:
    """What one fault epoch (a batch of same-time fault events) did.

    Captures the paper's anycast-failover measurement: the *transient*
    reachability probe runs against stale forwarding state right after
    the faults hit (packets black-holing at the failure), the
    *recovered* probe runs after the control plane reconverged and FIBs
    were reinstalled.
    """

    time: float
    events: List[str] = field(default_factory=list)
    reconverged_at: Optional[float] = None
    events_processed: int = 0
    transient: Optional[ReachabilityReport] = None
    recovered: Optional[ReachabilityReport] = None

    @property
    def reconvergence_time(self) -> Optional[float]:
        """Sim-time from fault injection to control-plane quiescence."""
        if self.reconverged_at is None:
            return None
        return self.reconverged_at - self.time

    @property
    def transient_losses(self) -> int:
        """Probes lost in the window before reconvergence."""
        if self.transient is None:
            return 0
        return self.transient.attempted - self.transient.delivered

    @property
    def recovered_delivery_ratio(self) -> Optional[float]:
        if self.recovered is None:
            return None
        return self.recovered.delivery_ratio

    def to_dict(self) -> Dict[str, object]:
        def report_dict(report: Optional[ReachabilityReport]) -> Optional[Dict[str, object]]:
            return report.to_dict() if report is not None else None

        return {"time": self.time, "events": list(self.events),
                "reconverged_at": self.reconverged_at,
                "reconvergence_time": self.reconvergence_time,
                "events_processed": self.events_processed,
                "transient_losses": self.transient_losses,
                "transient": report_dict(self.transient),
                "recovered": report_dict(self.recovered)}


def measure_reachability(network: Network, send, pairs: Iterable[Tuple[str, str]]
                         ) -> ReachabilityReport:
    """Run *send(src, dst) -> trace* over *pairs* and aggregate.

    Under an enabled observability handle, each probe additionally
    emits a ``reach.probe`` event carrying the per-packet path stretch
    (trace cost / direct shortest-path cost — an oracle quantity the
    trace alone cannot reconstruct), the delay-weighted analogue
    ``delay_stretch`` (trace latency / best possible delay, from
    :class:`~repro.measure.oracle.DelayOracle`), plus the hop/
    encapsulation counts, which is what the offline analyzer's stretch
    and encapsulation-overhead distributions are built from.  Older
    (pre-v3) traces simply lack ``delay_stretch``; the analyzer treats
    it as optional.
    """
    report = ReachabilityReport()
    obs = get_obs()
    oracle = DelayOracle(network) if obs.enabled else None
    for src, dst in pairs:
        trace = send(src, dst)
        report.record(network, trace, src, dst)
        if obs.enabled:
            assert oracle is not None  # repro: allow[D5]
            obs.event("reach.probe", src=src, dst=dst,
                      outcome=trace.outcome.value,
                      stretch=path_stretch(network, trace, src, dst),
                      delay_stretch=delay_stretch(oracle, trace, src, dst),
                      latency=trace.latency,
                      physical_hops=trace.physical_hops,
                      vn_hops=trace.vn_hops,
                      encapsulations=trace.encapsulations,
                      max_depth=trace.max_depth,
                      faulted=trace.faulted)
    return report


def routing_state_table(route_counts: Dict[int, int]) -> Dict[str, float]:
    """Summary statistics over per-AS routing-state counts (E5 rows)."""
    values = list(route_counts.values())
    if not values:
        return {"total": 0.0, "mean": 0.0, "max": 0.0}
    return {"total": float(sum(values)),
            "mean": float(statistics.fmean(values)),
            "max": float(max(values))}


def traffic_share(network: Network, traces: Sequence[ForwardingTrace],
                  asn: int) -> float:
    """Fraction of delivered traces whose anycast ingress is in *asn*.

    The "default provider receives a larger than normal share" metric
    of Section 3.2, option 2.
    """
    delivered = [t for t in traces if t.delivered and t.ingress_router is not None]
    if not delivered:
        return 0.0
    hits = sum(1 for t in delivered
               if network.node(t.ingress_router).domain_id == asn)
    return hits / len(delivered)


def outcome_histogram(traces: Sequence[ForwardingTrace]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for trace in traces:
        counts[trace.outcome.value] = counts.get(trace.outcome.value, 0) + 1
    return counts


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/mean/median/max of a metric series (bench table helper)."""
    if not values:
        return {"min": 0.0, "mean": 0.0, "median": 0.0, "max": 0.0, "n": 0.0}
    return {"min": float(min(values)), "mean": float(statistics.fmean(values)),
            "median": float(statistics.median(values)),
            "max": float(max(values)), "n": float(len(values))}
