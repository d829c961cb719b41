"""Distance-vector intra-domain routing (RIP-like) with the anycast extension.

The paper's Section 3.2 observation: under distance-vector, "anycast
routing merely requires that an IPvN router advertise a distance of
zero to its anycast address; standard distance-vector then ensures that
every router will discover the next hop to its closest IPvN router."
That is exactly what this implementation does — anycast addresses enter
the vector as ordinary host routes at distance zero from members.

Unlike link-state, a distance-vector IGP gives an IPvN router *no way*
to enumerate the other IPvN routers in its domain
(:attr:`DistanceVectorRouting.supports_member_discovery` is False);
vN-Bone construction over such domains must use the anycast-bootstrap
discovery path instead (paper footnote 3), which
:mod:`repro.vnbone.topology` implements.

The protocol uses split horizon with poison reverse and triggered
updates, with a coalescing flag so a burst of table changes produces a
single update per router.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set

from repro.net.address import Prefix
from repro.net.domain import Domain
from repro.net.network import Network
from repro.net.node import FibEntry, RouteSource
from repro.net.simulator import EventScheduler
from repro.routing.igp import IgpProtocol

#: "Unreachable" metric.  Far above any realistic intra-domain path cost;
#: routes at or beyond it are treated as withdrawn.
INFINITY = float(1 << 20)


@dataclass
class DvRoute:
    """One distance-vector table entry."""

    prefix: Prefix
    metric: float
    next_hop: Optional[str]  # None for locally originated routes

    @property
    def reachable(self) -> bool:
        return self.metric < INFINITY


class DistanceVectorRouting(IgpProtocol):
    """A triggered-update distance-vector IGP for one domain."""

    supports_member_discovery = False

    def __init__(self, network: Network, domain: Domain,
                 scheduler: EventScheduler) -> None:
        super().__init__(network, domain, scheduler)
        self._tables: Dict[str, Dict[Prefix, DvRoute]] = {
            rid: {} for rid in domain.routers}
        self._update_pending: Set[str] = set()

    # -- local origination -------------------------------------------------------
    def _local_routes(self, router_id: str) -> Dict[Prefix, DvRoute]:
        routes: Dict[Prefix, DvRoute] = {}
        for pfx in self.local_prefixes(router_id):
            routes[pfx] = DvRoute(prefix=pfx, metric=0.0, next_hop=None)
        for address in self._anycast_adverts.get(router_id, {}):
            pfx = Prefix.host(address)
            # The paper's extension: distance zero to our anycast address.
            routes[pfx] = DvRoute(prefix=pfx, metric=0.0, next_hop=None)
        return routes

    def _reoriginate(self, router_id: str) -> None:
        table = self._tables[router_id]
        fresh = self._local_routes(router_id)
        changed = False
        for pfx, route in fresh.items():
            current = table.get(pfx)
            if current is None or current.next_hop is not None or current.metric != 0.0:
                table[pfx] = route
                changed = True
        live_neighbors = {nid for nid, _, _ in self.intra_neighbors(router_id)}
        for pfx, route in list(table.items()):
            if not route.reachable:
                continue  # already poisoned: rewriting it would change nothing
            if route.next_hop is None and pfx not in fresh:
                # Poison local routes we no longer originate (withdrawn anycast).
                table[pfx] = DvRoute(prefix=pfx, metric=INFINITY, next_hop=None)
                changed = True
            elif route.next_hop is not None and route.next_hop not in live_neighbors:
                # Neighbor-down detection: routes via a dead adjacency
                # time out (as RIP's route timers would do).
                table[pfx] = DvRoute(prefix=pfx, metric=INFINITY,
                                     next_hop=route.next_hop)
                changed = True
        if changed:
            self._route_gen[router_id] += 1
            self._schedule_update(router_id)

    # -- update exchange -----------------------------------------------------------
    def _schedule_update(self, router_id: str) -> None:
        if router_id in self._update_pending:
            return
        self._update_pending.add(router_id)
        self.scheduler.schedule(0.0, lambda r=router_id: self._send_updates(r))

    def _send_updates(self, router_id: str) -> None:
        self._update_pending.discard(router_id)
        if router_id not in self._tables or not self.network.node(router_id).up:
            return  # crashed (or removed) routers send nothing
        obs_enabled = self.obs.enabled
        if obs_enabled:
            self.obs.counter("igp.dv.update_rounds").inc()
        table = self._tables[router_id]
        for neighbor_id, _cost, delay in self.intra_neighbors(router_id):
            vector: Dict[Prefix, float] = {}
            for pfx, route in table.items():
                if route.next_hop == neighbor_id:
                    vector[pfx] = INFINITY  # poison reverse
                else:
                    vector[pfx] = route.metric
            self.stats.record_send(size=len(vector))
            if obs_enabled:
                self.obs.counter("igp.dv.messages_sent").inc()
            self.scheduler.schedule_message(
                delay,
                lambda n=neighbor_id, s=router_id, v=vector: self._receive(n, s, v))

    def _solicit(self, router_id: str) -> None:
        """RIP-style route request: ask each live neighbor for its table.

        Triggered updates alone cannot *re-learn* a route that was
        poisoned: neighbors whose tables did not change stay silent.
        After a topology change the affected router therefore asks its
        neighbors for a full advertisement round.
        """
        if self.obs.enabled:
            self.obs.counter("igp.dv.solicitations").inc()
        for neighbor_id, _cost, delay in self.intra_neighbors(router_id):
            self.stats.record_send()
            self.scheduler.schedule_message(
                delay, lambda n=neighbor_id: self._answer_solicit(n))

    def _answer_solicit(self, router_id: str) -> None:
        if router_id not in self._tables or not self.network.node(router_id).up:
            return
        self.stats.record_delivery()
        self._schedule_update(router_id)

    def _receive(self, router_id: str, sender: str,
                 vector: Dict[Prefix, float]) -> None:
        if router_id not in self._tables:
            return
        if not self.network.node(router_id).up:
            return  # crashed router: message lost on the floor
        self.stats.record_delivery()
        link = self.network.link_between(router_id, sender)
        if link is None or not link.up:
            return  # link failed while the update was in flight
        cost = link.cost
        table = self._tables[router_id]
        changed = False
        lost_routes = False
        for pfx, metric in vector.items():
            candidate = min(metric + cost, INFINITY)
            current = table.get(pfx)
            if current is None:
                if candidate < INFINITY:
                    table[pfx] = DvRoute(prefix=pfx, metric=candidate, next_hop=sender)
                    changed = True
                continue
            if current.next_hop == sender:
                # Updates from our current next hop always apply (better or worse).
                if current.metric != candidate:
                    if candidate >= INFINITY and current.reachable:
                        lost_routes = True
                    table[pfx] = DvRoute(prefix=pfx, metric=candidate, next_hop=sender)
                    changed = True
            elif candidate < current.metric:
                table[pfx] = DvRoute(prefix=pfx, metric=candidate, next_hop=sender)
                changed = True
        if changed:
            self._route_gen[router_id] += 1
            self._schedule_update(router_id)
        if lost_routes:
            # A poison took a route away; ask other neighbors whether
            # they still know an alternate path.
            self._solicit(router_id)

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        for router_id in sorted(self.domain.routers):
            self.scheduler.schedule(0.0, lambda r=router_id: self._bootstrap(r))

    def _bootstrap(self, router_id: str) -> None:
        self._tables[router_id].update(self._local_routes(router_id))
        self._route_gen[router_id] += 1
        self._schedule_update(router_id)

    def refresh(self) -> None:
        if not self._started:
            self.start()
            return
        for router_id in sorted(self.domain.routers):
            self.scheduler.schedule(0.0, lambda r=router_id: self._reoriginate(r))
            # One full periodic-style advertisement round so that routes
            # invalidated by topology change can be re-learned from
            # neighbors whose own tables did not change.
            self.scheduler.schedule(0.0, lambda r=router_id: self._schedule_update(r))

    # -- failure detection ------------------------------------------------------
    def _react_to_link_change(self, router_id: str) -> None:
        # Purge routes via the dead adjacency (poison), push the change
        # to neighbors, and solicit full tables so alternates via other
        # neighbors can be re-learned.
        self._reoriginate(router_id)
        self._schedule_update(router_id)
        self._solicit(router_id)

    # -- route installation ---------------------------------------------------------
    def _routes(self, router_id: str) -> Iterator[FibEntry]:
        """A pure function of *router_id*'s table."""
        for pfx, route in self._tables[router_id].items():
            if route.next_hop is None or not route.reachable:
                continue
            yield FibEntry(prefix=pfx, next_hop=route.next_hop,
                           source=RouteSource.IGP, metric=route.metric)
