"""Nodes: routers and hosts, and their forwarding tables.

A :class:`Router` owns an IPv4 FIB (:class:`Fib`) plus a set of *local
addresses* it accepts delivery for.  Anycast membership — the heart of
the paper's redirection mechanism — is modeled exactly as RFC 1546
describes it: an IPvN router simply accepts delivery of packets
destined to the anycast address, i.e. the anycast address appears in
its local-address set, and routing protocols advertise a route to it.

Next-generation (IPvN) state is attached by :mod:`repro.vnbone` through
the ``vn_states`` slots so the base network layer stays family-agnostic:
the forwarding engine only knows that a node *may* have a handler for
decapsulated IPvN packets.
A node, its FIB and an attached vN state's ``fib`` are :class:`Watched`:
each reports a change through the one hook its network wires in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.address import IPV4_BITS, Address, IPv4Address, Prefix, VNAddress
from repro.net.errors import TopologyError
from repro.net.lpm import PrefixTable


class NodeKind(Enum):
    ROUTER = "router"
    HOST = "host"


class RouteSource(Enum):
    """Which protocol installed a FIB entry; doubles as admin distance."""

    CONNECTED = 0
    STATIC = 1
    IGP = 10
    BGP = 20

    @property
    def admin_distance(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class FibEntry:
    """One forwarding decision: send matching packets to *next_hop*.

    ``next_hop`` is the neighbor node id on the chosen outgoing link;
    ``local`` marks a deliver-to-self entry (the node owns the prefix).
    """

    prefix: Prefix
    next_hop: Optional[str]
    source: RouteSource
    metric: float = 0.0
    local: bool = False

    def __post_init__(self) -> None:
        if not self.local and self.next_hop is None:
            raise TopologyError(f"non-local FIB entry for {self.prefix} needs a next hop")


class Watched:
    """State a forwarding walk reads: reports each change through
    ``_on_change``, wired when its node joins a network."""

    _on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()


def _rank(entry: FibEntry) -> Tuple[int, float]:
    return (entry.source.admin_distance, entry.metric)


class _Route:
    """One installed prefix: every source's offer, and the winner."""

    __slots__ = ("offers", "best")

    def __init__(self, entry: FibEntry) -> None:
        self.offers: Dict[RouteSource, FibEntry] = {entry.source: entry}
        self.best = entry


class Fib(Watched):
    """A longest-prefix-match forwarding table with admin-distance arbitration.

    Multiple protocols may offer routes for the same prefix; the FIB
    keeps the offer with the lowest (admin_distance, metric).  Offers
    are tracked per source so a protocol can withdraw only its own; the
    winner is resolved when an offer changes, so reads return a stored
    entry.
    """

    def __init__(self, bits: int = IPV4_BITS) -> None:
        self._table: PrefixTable[_Route] = PrefixTable(bits)
        #: Bumped by the IGP each time it rewrites this table's IGP
        #: rows.  BGP's hot-potato rows are derived from them, so they
        #: are valid only while this (and the domain's egress map) holds.
        self.igp_generation = 0

    def install(self, entry: FibEntry) -> None:
        """Offer *entry*; replaces this source's previous offer for the prefix."""
        route = self._table.get(entry.prefix)
        if route is None:
            self._table.insert(entry.prefix, _Route(entry))
        else:
            offers = route.offers
            offers[entry.source] = entry
            route.best = entry if len(offers) == 1 else min(offers.values(), key=_rank)
        self._changed()

    def withdraw(self, prefix: Prefix, source: RouteSource) -> bool:
        """Remove *source*'s offer for *prefix*; True if one was removed."""
        route = self._table.get(prefix)
        if route is None or source not in route.offers:
            return False
        del route.offers[source]
        if not route.offers:
            self._table.remove(prefix)
        elif route.best.source is source:
            route.best = min(route.offers.values(), key=_rank)
        self._changed()
        return True

    def withdraw_all(self, source: RouteSource) -> int:
        """Remove every offer installed by *source*; returns the count."""
        doomed = [pfx for pfx, route in self._table.items() if source in route.offers]
        for pfx in doomed:
            self.withdraw(pfx, source)
        return len(doomed)

    def lookup(self, address: Address) -> Optional[FibEntry]:
        """Longest-prefix match; the best offer by admin distance."""
        match = self._table.lookup(address)
        return match[1].best if match is not None else None

    def snapshot(self, source: Optional[RouteSource] = None
                 ) -> List[Tuple[str, str, str, float]]:
        """A canonical, sorted dump of every offer — the byte-exact
        surface the benchmark's ``sim_digest`` and the install-oracle
        tests compare.  Optionally restricted to one *source* (e.g.
        ``RouteSource.BGP``).
        """
        rows: List[Tuple[str, str, str, float]] = []
        for pfx, route in self._table.items():
            offers = route.offers
            for src in sorted(offers, key=lambda s: s.name):
                if source is not None and src is not source:
                    continue
                entry = offers[src]
                rows.append((str(pfx), src.name,
                             "" if entry.next_hop is None else entry.next_hop,
                             entry.metric))
        rows.sort()
        return rows


@dataclass
class Node(Watched):
    """Base class for routers and hosts."""

    node_id: str
    ipv4: IPv4Address
    domain_id: int
    kind: NodeKind = NodeKind.ROUTER

    def __post_init__(self) -> None:
        self.links: List["object"] = []  # populated by Network.add_link
        #: False while the node is crashed (fault injection).  A down
        #: node neither forwards nor accepts packets, and control-plane
        #: messages addressed to it are lost.
        self.up: bool = True
        self.fib4 = Fib(IPV4_BITS)
        self._local_ipv4: Set[IPv4Address] = {self.ipv4}
        # IPvN state per deployed version, attached by repro.vnbone for
        # routers that deploy IPvN.  Kept as opaque objects so the base
        # layer has no IPvN dependency; several generations (IPv8, IPv9,
        # ...) can coexist on one router.
        self.vn_states: Dict[int, object] = {}

    # -- IPvN state ------------------------------------------------------
    def vn_state_for(self, version: int) -> Optional[object]:
        """The router's IPvN state for *version*, if it deploys it."""
        return self.vn_states.get(version)

    def set_vn_state(self, version: int, state: object) -> None:
        """Attach *state*; a :class:`Watched` ``fib`` in it reports to this node's hook."""
        self.vn_states[version] = state
        fib = getattr(state, "fib", None)
        if isinstance(fib, Watched):
            fib._on_change = self._on_change
        self._changed()

    def clear_vn_state(self, version: int) -> None:
        self.vn_states.pop(version, None)
        self._changed()

    # -- local delivery ------------------------------------------------
    def accepts_ipv4(self, address: IPv4Address) -> bool:
        """Whether this node accepts local delivery for *address*.

        Anycast membership works by adding the anycast address here
        (RFC 1546: members "accept datagrams" for the anycast address).
        """
        return address in self._local_ipv4

    def add_local_ipv4(self, address: IPv4Address) -> None:
        self._local_ipv4.add(address)
        self._changed()

    def remove_local_ipv4(self, address: IPv4Address) -> None:
        if address == self.ipv4:
            raise TopologyError(f"cannot remove {self.node_id}'s primary address")
        self._local_ipv4.discard(address)
        self._changed()

    @property
    def is_router(self) -> bool:
        return self.kind is NodeKind.ROUTER

    @property
    def is_host(self) -> bool:
        return self.kind is NodeKind.HOST

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.node_id}@AS{self.domain_id}"


@dataclass
class Router(Node):
    """An IP router.  ``is_border`` routers terminate inter-domain links."""

    is_border: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = NodeKind.ROUTER


@dataclass
class Host(Node):
    """An endhost attached to exactly one access router.

    Hosts are the sources and sinks of the experiments.  A host sends
    IPv4 through its access router; its IPvN stack (if enabled) does the
    paper's host encapsulation: wrap the IPvN packet in IPv4 addressed
    to the deployment's anycast address.
    Only losing or replacing an IPvN address or a group reports a change:
    a first address or a join can only turn a drop into a delivery.
    """

    access_router: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = NodeKind.HOST
        if not self.access_router:
            raise TopologyError(f"host {self.node_id} needs an access router")
        #: IPvN addresses this host answers to, by version.
        self.vn_addresses: Dict[int, VNAddress] = {}
        #: IPvN multicast groups this host has joined (any version).
        self.vn_groups: Set[VNAddress] = set()

    def assign_vn_address(self, address: VNAddress) -> None:
        replaced = self.vn_addresses.get(address.version)
        self.vn_addresses[address.version] = address
        if replaced is not None and replaced != address:
            self._changed()

    def leave_group(self, group: VNAddress) -> None:
        self.vn_groups.discard(group)
        self._changed()
