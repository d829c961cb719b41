"""Link-state intra-domain routing (OSPF-like) with the anycast extension.

Each router originates a link-state advertisement (LSA) describing its
live intra-domain adjacencies, the prefixes it injects (its loopback
and attached hosts), and — the paper's Section 3.2 extension — a
high-cost stub "link" to each anycast address it is a member of.  LSAs
flood reliably through the domain; once flooding quiesces every router
runs Dijkstra over its link-state database and installs routes,
including a host route towards the *closest* member of each anycast
group.

Because anycast membership is visible in the LSDB, an IPvN router "can
easily identify every other IPvN router within its domain"
(:meth:`LinkStateRouting.member_directory`), which is what makes the
simple intra-domain vN-Bone construction rule possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain
from repro.net.errors import RoutingError
from repro.net.link import Link
from repro.net.network import Network, first_hop_spf
from repro.net.node import FibEntry, RouteSource
from repro.net.simulator import EventScheduler
from repro.routing.igp import ANYCAST_STUB_COST, IgpProtocol


@dataclass(frozen=True)
class Lsa:
    """One router's link-state advertisement."""

    origin: str
    seq: int
    neighbors: Tuple[Tuple[str, float], ...]
    prefixes: Tuple[Prefix, ...]
    anycast: Tuple[Tuple[IPv4Address, float], ...]

    def content_key(self) -> Tuple[object, ...]:
        """Everything except the sequence number (change detection)."""
        return (self.origin, self.neighbors, self.prefixes, self.anycast)


class LinkStateRouting(IgpProtocol):
    """A flooding link-state IGP for one domain."""

    supports_member_discovery = True

    def __init__(self, network: Network, domain: Domain,
                 scheduler: EventScheduler) -> None:
        super().__init__(network, domain, scheduler)
        #: Per-router link-state database: viewpoint -> origin -> LSA.
        self._lsdb: Dict[str, Dict[str, Lsa]] = {rid: {} for rid in domain.routers}
        self._seq: Dict[str, int] = {rid: 0 for rid in domain.routers}
        #: (the domain's version, advertisement generation) at which a
        #: full :meth:`refresh` scan last found nothing to re-originate;
        #: while both hold, no router's fresh LSA can differ from its
        #: stored one.
        self._settled_at: Optional[Tuple[int, int]] = None

    # -- origination and flooding ---------------------------------------------
    def _build_lsa(self, router_id: str) -> Lsa:
        neighbors = tuple(sorted((nid, cost) for nid, cost, _ in
                                 self.intra_neighbors(router_id)))
        prefixes = tuple(sorted(self.local_prefixes(router_id)))
        anycast = tuple(sorted(self._anycast_adverts.get(router_id, {}).items()))
        return Lsa(origin=router_id, seq=self._seq[router_id], neighbors=neighbors,
                   prefixes=prefixes, anycast=anycast)

    def _originate(self, router_id: str) -> None:
        self._seq[router_id] += 1
        lsa = self._build_lsa(router_id)
        self._store_lsa(router_id, lsa)
        if self.obs.enabled:
            self.obs.counter("igp.ls.lsa_originations").inc()
        self._flood(router_id, lsa, exclude=None)

    def _store_lsa(self, viewpoint: str, lsa: Lsa) -> None:
        """Store *lsa* in *viewpoint*'s LSDB, bumping its route generation."""
        self._lsdb[viewpoint][lsa.origin] = lsa
        self._route_gen[viewpoint] += 1

    def _flood(self, from_router: str, lsa: Lsa, exclude: Optional[str]) -> None:
        obs_enabled = self.obs.enabled
        for neighbor_id, _cost, delay in self.intra_neighbors(from_router):
            if neighbor_id == exclude:
                continue
            self.stats.record_send()
            if obs_enabled:
                self.obs.counter("igp.ls.messages_sent").inc()
            self.scheduler.schedule_message(
                delay, lambda n=neighbor_id, s=from_router, l=lsa: self._receive(n, s, l))

    def _receive(self, router_id: str, sender: str, lsa: Lsa) -> None:
        if router_id not in self._lsdb:
            return  # router left the domain mid-flight
        if not self.network.node(router_id).up:
            return  # crashed router: message lost on the floor
        self.stats.record_delivery()
        current = self._lsdb[router_id].get(lsa.origin)
        if current is not None and current.seq >= lsa.seq:
            return
        self._store_lsa(router_id, lsa)
        self._flood(router_id, lsa, exclude=sender)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        for router_id in sorted(self.domain.routers):
            self.scheduler.schedule(0.0, lambda r=router_id: self._originate(r))

    def refresh(self) -> None:
        """Re-originate LSAs whose content changed (triggered updates).

        An LSA's content is a function of the domain's own links and
        nodes (``Network.domain_version``) and its anycast
        advertisements, and a router's stored LSA only ever becomes its
        fresh one.  So once a full scan has scheduled nothing, the next
        scan cannot either until one of the two moves, and is skipped —
        a fault in another domain costs this one nothing; a scan that
        did schedule an origination proves nothing (it has yet to run)
        and the next call scans again.
        """
        if not self._started:
            self.start()
            return
        state = (self.network.domain_version(self.domain.asn), self._advert_gen)
        if self._settled_at == state:
            self.refreshes_skipped += 1
            if self.obs.enabled:
                self.obs.counter("igp.refresh.skipped").inc()
            return
        settled = True
        for router_id in sorted(self.domain.routers):
            fresh = self._build_lsa(router_id)
            stored = self._lsdb[router_id].get(router_id)
            if stored is None or stored.content_key() != fresh.content_key():
                self.scheduler.schedule(0.0, lambda r=router_id: self._originate(r))
                settled = False
        self._settled_at = state if settled else None

    # -- failure detection ------------------------------------------------------
    def on_link_change(self, link: Link) -> None:
        super().on_link_change(link)
        if not self._started or not link.up:
            return
        # An adjacency (re)formed.  Besides re-originating LSAs, the two
        # endpoints exchange full databases (OSPF's DB-description phase)
        # so state that changed while they were partitioned propagates:
        # seq-number dedup in _receive makes replaying stale LSAs safe.
        if link.a in self.domain.routers and link.b in self.domain.routers:
            self.scheduler.schedule(
                self.hold_down,
                lambda a=link.a, b=link.b: self._sync_adjacency(a, b))

    def _sync_adjacency(self, a: str, b: str) -> None:
        for source, target in ((a, b), (b, a)):
            if source not in self._lsdb or target not in self._lsdb:
                continue
            if not self.network.node(source).up:
                continue
            link = self.network.link_between(source, target)
            if link is None or not link.up:
                continue
            for lsa in list(self._lsdb[source].values()):
                self.stats.record_send()
                self.scheduler.schedule_message(
                    link.delay,
                    lambda t=target, s=source, l=lsa: self._receive(t, s, l))

    def _react_to_link_change(self, router_id: str) -> None:
        # Only the routers adjacent to the event re-originate; flooding
        # carries the change to the rest of the domain.
        self._originate(router_id)

    # -- SPF and route installation ---------------------------------------------
    def _spf(self, router_id: str) -> Dict[str, Tuple[float, Optional[str]]]:
        """Dijkstra over *router_id*'s LSDB: node -> (dist, first hop).

        An edge is used only if both endpoints advertise it
        (bidirectionality check, as in OSPF).
        """
        if self.obs.enabled:
            self.obs.counter("igp.ls.spf_runs").inc()
            self.obs.counter("perf.dijkstra_runs").inc()
        lsdb = self._lsdb[router_id]
        adjacency: Dict[str, List[Tuple[str, float]]] = {}
        for origin, lsa in lsdb.items():
            for neighbor_id, cost in lsa.neighbors:
                back = lsdb.get(neighbor_id)
                if back is None:
                    continue
                if not any(nid == origin for nid, _ in back.neighbors):
                    continue
                adjacency.setdefault(origin, []).append((neighbor_id, cost))
        for edges in adjacency.values():
            edges.sort()  # once per SPF, not once per heap pop
        return first_hop_spf(router_id, adjacency)

    def _routes(self, router_id: str) -> Iterator[FibEntry]:
        """A pure function of *router_id*'s LSDB."""
        lsdb = self._lsdb[router_id]
        spf = self._spf(router_id)
        # Unicast prefixes of every reachable router.
        for origin, lsa in lsdb.items():
            if origin == router_id or origin not in spf:
                continue
            dist, first_hop = spf[origin]
            if first_hop is None:
                continue
            for pfx in lsa.prefixes:
                yield FibEntry(prefix=pfx, next_hop=first_hop,
                               source=RouteSource.IGP, metric=dist)
        # Anycast: route to the closest advertising member.
        for address in self._visible_anycast_addresses(lsdb):
            best = self._closest_member(router_id, address, lsdb, spf)
            if best is None:
                continue
            member, total_cost = best
            if member == router_id:
                continue  # local member: accepts_ipv4 handles delivery
            _, first_hop = spf[member]
            if first_hop is None:
                continue
            yield FibEntry(prefix=Prefix.host(address), next_hop=first_hop,
                           source=RouteSource.IGP, metric=total_cost)

    @staticmethod
    def _visible_anycast_addresses(lsdb: Dict[str, Lsa]) -> Set[IPv4Address]:
        addresses: Set[IPv4Address] = set()
        for lsa in lsdb.values():
            addresses.update(addr for addr, _ in lsa.anycast)
        return addresses

    @staticmethod
    def _closest_member(router_id: str, address: IPv4Address, lsdb: Dict[str, Lsa],
                        spf: Dict[str, Tuple[float, Optional[str]]]
                        ) -> Optional[Tuple[str, float]]:
        best: Optional[Tuple[str, float]] = None
        for origin, lsa in sorted(lsdb.items()):
            stub_cost = next((c for a, c in lsa.anycast if a == address), None)
            if stub_cost is None or origin not in spf:
                continue
            total = spf[origin][0] + stub_cost
            if best is None or total < best[1]:
                best = (origin, total)
        return best

    # -- discovery ------------------------------------------------------------------
    def member_directory(self, address: IPv4Address,
                         viewpoint: Optional[str] = None) -> Set[str]:
        """Anycast members visible in the LSDB.

        *viewpoint* selects whose database to read (defaults to the
        lexicographically first router); after convergence all
        viewpoints agree unless the domain is partitioned.
        """
        if not self._lsdb:
            return set()
        if viewpoint is None:
            viewpoint = min(self._lsdb)
        if viewpoint not in self._lsdb:
            raise RoutingError(f"{viewpoint!r} is not a router of AS{self.domain.asn}")
        return {origin for origin, lsa in self._lsdb[viewpoint].items()
                if any(a == address for a, _ in lsa.anycast)}

    def igp_distance(self, viewpoint: str, target: str) -> Optional[float]:
        """Converged SPF distance from *viewpoint* to *target* router."""
        spf = self._spf(viewpoint)
        entry = spf.get(target)
        return entry[0] if entry is not None else None
