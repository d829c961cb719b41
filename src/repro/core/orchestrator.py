"""The routing orchestrator: one object that owns all control planes.

``Orchestrator`` wires together, over a single deterministic event
scheduler:

* one IGP instance per domain (link-state by default, distance-vector
  per domain on request — the paper treats both, Section 3.2),
* one BGP protocol spanning all domains,
* the forwarding engine.

``converge()`` runs everything to quiescence and installs forwarding
state in dependency order: IGPs first (BGP's hot-potato installation
needs IGP routes to border loopbacks), then BGP.  Deployment actions
(anycast advertisements, new originations, peering agreements) call
``reconverge()`` afterwards.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.net.errors import RoutingError
from repro.net.forwarding import ForwardingEngine, ForwardingTrace
from repro.net.link import Link, LinkScope
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.simulator import EventScheduler
from repro.obs import get_obs
from repro.bgp.policy import BgpPolicy, BilateralAgreements
from repro.bgp.protocol import BgpProtocol
from repro.routing.distancevector import DistanceVectorRouting
from repro.routing.igp import IgpProtocol
from repro.routing.linkstate import LinkStateRouting

IGP_KINDS = ("linkstate", "distancevector")


class Orchestrator:
    """Owns and sequences every control-plane protocol of one internetwork."""

    def __init__(self, network: Network, seed: int = 0,
                 igp_kind: str = "linkstate",
                 igp_overrides: Optional[Dict[int, str]] = None,
                 policy: Optional[BgpPolicy] = None) -> None:
        if igp_kind not in IGP_KINDS:
            raise RoutingError(f"unknown IGP kind {igp_kind!r}; choose from {IGP_KINDS}")
        self.network = network
        self.obs = get_obs()
        self.scheduler = EventScheduler(seed=seed, obs=self.obs)
        self.policy = policy if policy is not None else BgpPolicy()
        self.bgp = BgpProtocol(network, self.scheduler, policy=self.policy)
        self.engine = ForwardingEngine(network, clock=lambda: self.scheduler.now)
        self.igps: Dict[int, IgpProtocol] = {}
        overrides = igp_overrides or {}
        for asn, domain in sorted(network.domains.items()):
            kind = overrides.get(asn, igp_kind)
            if kind not in IGP_KINDS:
                raise RoutingError(f"unknown IGP kind {kind!r} for AS{asn}")
            cls = LinkStateRouting if kind == "linkstate" else DistanceVectorRouting
            self.igps[asn] = cls(network, domain, self.scheduler)
        self._converged = False
        if self.obs.enabled:
            self.obs.event("topology", seed=seed, igp_kind=igp_kind,
                           **network.stats())

    @property
    def agreements(self) -> BilateralAgreements:
        return self.policy.agreements

    def igp(self, asn: int) -> IgpProtocol:
        try:
            return self.igps[asn]
        except KeyError:
            raise RoutingError(f"no IGP for AS{asn}") from None

    # -- convergence -------------------------------------------------------------
    def converge(self, max_events: int = 5_000_000) -> int:
        """Run all protocols to quiescence and install forwarding state."""
        observed = self.obs.enabled
        if observed:
            wall_t0 = time.perf_counter()
        processed = 0
        with self.obs.span("orchestrator.converge", t=self.scheduler.now) as span:
            for asn in sorted(self.igps):
                igp = self.igps[asn]
                if not igp._started:  # noqa: SLF001 - orchestrator owns lifecycle
                    igp.start()
            processed += self.scheduler.run_until_idle(max_events=max_events)
            for asn in sorted(self.igps):
                self.igps[asn].install_routes()
            self.bgp.start()
            processed += self.scheduler.run_until_idle(max_events=max_events)
            self.bgp.install_routes()
            self._converged = True
            span.end(t=self.scheduler.now, events=processed)
        if observed:
            wall_ms = (time.perf_counter() - wall_t0) * 1000.0
            self.obs.counter("orchestrator.convergences").inc()
            self.obs.histogram("orchestrator.converge_wall_ms").observe(wall_ms)
            self.obs.event("orchestrator.converge", t=self.scheduler.now,
                           events=processed, wall_ms=wall_ms)
        return processed

    def reconverge(self, max_events: int = 5_000_000) -> int:
        """Re-run protocols after a control-plane change.

        IGP refreshes are triggered by the protocols themselves when
        anycast advertisements change; BGP propagation is triggered by
        origination calls.  This drains whatever is pending and
        reinstalls in order.
        """
        if not self._converged:
            return self.converge(max_events=max_events)
        observed = self.obs.enabled
        if observed:
            wall_t0 = time.perf_counter()
        with self.obs.span("orchestrator.reconverge", t=self.scheduler.now) as span:
            for asn in sorted(self.igps):
                self.igps[asn].refresh()
            # Tear down crashed speakers and BGP sessions whose physical
            # links vanished; the flush propagates withdrawals/alternatives.
            self.bgp.resync_speakers()
            self.bgp.resync_sessions()
            processed = self.scheduler.run_until_idle(max_events=max_events)
            self.install_routes()
            span.end(t=self.scheduler.now, events=processed)
        if observed:
            wall_ms = (time.perf_counter() - wall_t0) * 1000.0
            self.obs.counter("orchestrator.reconvergences").inc()
            self.obs.histogram("orchestrator.reconverge_wall_ms").observe(wall_ms)
            self.obs.event("orchestrator.reconverge", t=self.scheduler.now,
                           events=processed, wall_ms=wall_ms)
        return processed

    def install_routes(self) -> None:
        """Install converged state into FIBs: IGPs first, then BGP."""
        for asn in sorted(self.igps):
            self.igps[asn].install_routes()
        self.bgp.install_routes()

    # -- failure notification ----------------------------------------------------
    def notify_link_change(self, link: Link) -> None:
        """Tell the control planes a link changed state (fault injection).

        Intra-domain links go to the owning domain's IGP, which arms
        hold-down timers at the endpoints; inter-domain links go to BGP
        session maintenance.  The caller is responsible for draining the
        scheduler (:meth:`EventScheduler.run_until_idle`) and calling
        :meth:`install_routes` afterwards — the :class:`FaultInjector`
        does both.
        """
        if link.scope is LinkScope.INTER_DOMAIN:
            self.bgp.resync_sessions()
            return
        domain_id = self.network.node(link.a).domain_id
        igp = self.igps.get(domain_id)
        if igp is not None:
            igp.on_link_change(link)

    def notify_node_change(self, node_id: str) -> None:
        """Tell the control planes a node crashed or recovered."""
        self.bgp.resync_speakers()
        self.bgp.resync_sessions()
        node = self.network.node(node_id)
        igp = self.igps.get(node.domain_id)
        if igp is not None and node.up:
            # A recovered router must re-advertise itself; its neighbors
            # react to the restored links via notify_link_change.
            igp.refresh()

    # -- convenience -----------------------------------------------------------------
    def forward(self, packet: Packet, start: str, strict: bool = False) -> ForwardingTrace:
        """Send *packet* from node *start* through the converged data plane."""
        if not self._converged:
            raise RoutingError("converge() before forwarding packets")
        return self.engine.forward(packet, start, strict=strict)

    def message_totals(self) -> Dict[str, int]:
        """Control-plane message counters (experiment E11)."""
        igp_sent = sum(igp.stats.sent for igp in self.igps.values())
        return {"igp_messages": igp_sent, "bgp_messages": self.bgp.stats.sent,
                "events": self.scheduler.events_processed}
