"""Common interface for intra-domain routing protocols (IGPs).

The paper's anycast story needs two things from the IGP (Section 3.2):

1. **Anycast routing**: an IPvN router advertises the deployment's
   anycast address into the IGP (a high-cost stub "link" under
   link-state, a zero-distance entry under distance-vector) so that
   every router in the domain learns a path to its *closest* IPvN
   router.
2. **Member discovery** (link-state only): from the link-state
   database, an IPvN router can identify every other IPvN router in its
   domain — the property vN-Bone topology construction leans on
   (Section 3.3.1).  Distance-vector cannot offer this; callers must
   fall back to anycast-bootstrap discovery, exactly as footnote 3 of
   the paper prescribes.

Both concrete IGPs are message driven over the shared event scheduler,
so experiment E11 can count protocol messages with and without the
anycast extensions.

Installation costs what changed: each protocol bumps a per-router
*route generation* wherever the state that router's routes derive from
is written (its LSDB under link-state, its table under
distance-vector), and :meth:`IgpProtocol.install_routes` rewrites only
the routers whose generation moved since their last install.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Iterable, List, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain
from repro.net.errors import RoutingError
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import FibEntry, Node, RouteSource
from repro.net.simulator import EventScheduler, MessageStats
from repro.obs import AbstractSpan, get_obs

#: The paper's "high-cost link" to the anycast address under link-state.
#: The cost is uniform across members, so it never changes *which*
#: member is closest; it only discourages transit through the address.
ANYCAST_STUB_COST = 1000.0

#: Delay between observing a link event and reacting to it.  Dampens
#: flapping links: a burst of events at one router collapses into a
#: single re-advertisement when the timer expires.
HOLD_DOWN_DELAY = 0.5


class IgpProtocol(abc.ABC):
    """Base class for intra-domain routing protocols."""

    #: Whether the LSDB lets IPvN routers enumerate one another.
    supports_member_discovery = False

    def __init__(self, network: Network, domain: Domain,
                 scheduler: EventScheduler) -> None:
        self.network = network
        self.domain = domain
        self.scheduler = scheduler
        self.stats = MessageStats()
        self.obs = get_obs()
        #: router_id -> {anycast address -> stub cost} advertisements.
        self._anycast_adverts: Dict[str, Dict[IPv4Address, float]] = {}
        #: Bumped whenever ``_anycast_adverts`` changes.
        self._advert_gen = 0
        #: Per-router route generation: the protocol bumps it wherever
        #: the state :meth:`_routes` reads for that router is written,
        #: so an unchanged generation proves the routes are unchanged.
        self._route_gen: Dict[str, int] = {rid: 0 for rid in domain.routers}
        #: Route generation each router's FIB was last written at.
        self._installed_gen: Dict[str, int] = {}
        #: What the install and refresh gates did (see :meth:`gate_stats`).
        self.routers_written = 0
        self.routers_skipped = 0
        self.refreshes_skipped = 0
        self._started = False
        #: Per-router hold-down: routers with a pending reaction timer.
        self._holddown_pending: Set[str] = set()
        #: Open ``igp.holddown`` spans, one per pending timer: started
        #: when the timer is armed (under the fault that armed it),
        #: ended at expiry — so the dampening delay shows up as a
        #: measurable phase in the offline critical-path report.
        self._holddown_spans: Dict[str, AbstractSpan] = {}
        self.hold_down = HOLD_DOWN_DELAY

    # -- lifecycle -----------------------------------------------------------
    @abc.abstractmethod
    def start(self) -> None:
        """Schedule initial advertisements for every router in the domain."""

    @abc.abstractmethod
    def refresh(self) -> None:
        """Re-originate advertisements after topology or anycast changes."""

    @abc.abstractmethod
    def _routes(self, router_id: str) -> Iterable[FibEntry]:
        """*router_id*'s IGP routes, from the state ``_route_gen`` guards."""

    def install_routes(self) -> None:
        """Install converged protocol state into the domain's FIBs.

        A router is rewritten (every IGP row withdrawn, :meth:`_routes`
        installed) only when its route generation moved since its last
        install; the FIB itself is the record of what was installed.
        """
        written = 0
        for router_id in sorted(self.domain.routers):
            generation = self._route_gen[router_id]
            if self._installed_gen.get(router_id) == generation:
                continue
            fib = self.network.node(router_id).fib4
            fib.withdraw_all(RouteSource.IGP)
            for entry in self._routes(router_id):
                fib.install(entry)
            fib.igp_generation += 1
            self._installed_gen[router_id] = generation
            written += 1
        skipped = len(self.domain.routers) - written
        self.routers_written += written
        self.routers_skipped += skipped
        if self.obs.enabled:
            self.obs.counter("igp.install.routers_written").inc(written)
            self.obs.counter("igp.install.routers_skipped").inc(skipped)

    def gate_stats(self) -> Dict[str, int]:
        """Plain-int totals of what the install and refresh gates did."""
        return {"routers_written": self.routers_written,
                "routers_skipped": self.routers_skipped,
                "refreshes_skipped": self.refreshes_skipped}

    def converge(self, max_events: int = 2_000_000) -> int:
        """Drain protocol messages, then install routes.  Returns events run."""
        observed = self.obs.enabled
        if observed:
            wall_t0 = time.perf_counter()
        if not self._started:
            self.start()
        processed = self.scheduler.run_until_idle(max_events=max_events)
        self.install_routes()
        if observed:
            wall_ms = (time.perf_counter() - wall_t0) * 1000.0
            self.obs.histogram("igp.converge_wall_ms").observe(wall_ms)
            self.obs.event("igp.converge", t=self.scheduler.now,
                           asn=self.domain.asn, protocol=type(self).__name__,
                           events=processed, messages_sent=self.stats.sent,
                           wall_ms=wall_ms)
        return processed

    # -- failure detection -----------------------------------------------------
    def on_link_change(self, link: Link) -> None:
        """Notify the IGP that one of its domain's links changed state.

        Each endpoint router arms a hold-down timer
        (:data:`HOLD_DOWN_DELAY`); when it expires the router withdraws
        and re-advertises its view of the topology
        (:meth:`_react_to_link_change`).  Repeated events while the
        timer is armed coalesce into one reaction — the classic
        dampening trade-off between reconvergence speed and update
        churn under flapping.
        """
        if not self._started:
            return  # first convergence will see the final link state
        for endpoint in (link.a, link.b):
            if endpoint in self.domain.routers:
                self._schedule_holddown(endpoint)

    def _schedule_holddown(self, router_id: str) -> None:
        if router_id in self._holddown_pending:
            return
        self._holddown_pending.add(router_id)
        self._holddown_spans[router_id] = self.obs.span(
            "igp.holddown", t=self.scheduler.now, asn=self.domain.asn,
            router=router_id).start()
        self.scheduler.schedule(
            self.hold_down, lambda r=router_id: self._holddown_expired(r))

    def _holddown_expired(self, router_id: str) -> None:
        self._holddown_pending.discard(router_id)
        span = self._holddown_spans.pop(router_id, None)
        if span is not None:
            span.end(t=self.scheduler.now)
        if router_id not in self.domain.routers:
            return
        if not self.network.node(router_id).up:
            return  # crashed routers stay silent; recovery renotifies
        self._react_to_link_change(router_id)

    def _react_to_link_change(self, router_id: str) -> None:
        """Protocol-specific reaction once a hold-down timer expires."""
        self.refresh()

    # -- anycast extension -----------------------------------------------------
    def advertise_anycast(self, router_id: str, address: IPv4Address,
                          cost: float = ANYCAST_STUB_COST) -> None:
        """Have *router_id* advertise a stub route to an anycast address."""
        self._require_member(router_id)
        self._anycast_adverts.setdefault(router_id, {})[address] = cost
        self._advert_gen += 1
        if self._started:
            self.refresh()

    def withdraw_anycast(self, router_id: str, address: IPv4Address) -> None:
        adverts = self._anycast_adverts.get(router_id, {})
        if address not in adverts:
            return  # never advertised: nothing to tell the domain
        del adverts[address]
        if not adverts:
            del self._anycast_adverts[router_id]
        self._advert_gen += 1
        if self._started:
            self.refresh()

    # -- helpers ----------------------------------------------------------------
    def _require_member(self, router_id: str) -> Node:
        if router_id not in self.domain.routers:
            raise RoutingError(
                f"router {router_id!r} is not in AS{self.domain.asn}; cannot participate in its IGP")
        return self.network.node(router_id)

    def local_prefixes(self, router_id: str) -> List[Prefix]:
        """Prefixes a router originates: its loopback and attached hosts."""
        node = self.network.node(router_id)
        prefixes = [Prefix.host(node.ipv4)]
        for neighbor_id, _link in self.network.neighbors(router_id):
            neighbor = self.network.node(neighbor_id)
            if neighbor.is_host:
                prefixes.append(Prefix.host(neighbor.ipv4))
        return prefixes

    def intra_neighbors(self, router_id: str) -> List[Tuple[str, float, float]]:
        """(neighbor router id, cost, delay) over live intra-domain links."""
        result = []
        for neighbor_id, link in self.network.neighbors(router_id):
            neighbor = self.network.node(neighbor_id)
            if neighbor.is_host or neighbor.domain_id != self.domain.asn:
                continue
            result.append((neighbor_id, link.cost, link.delay))
        return result

    # -- discovery hooks (link-state only) ----------------------------------------
    def member_directory(self, address: IPv4Address) -> Set[str]:
        """All routers advertising *address*, as visible from the LSDB.

        Only meaningful when :attr:`supports_member_discovery` is true;
        the base implementation raises to keep callers honest.
        """
        raise RoutingError(
            f"{type(self).__name__} cannot enumerate anycast members; "
            "use anycast-bootstrap discovery instead (paper footnote 3)")
