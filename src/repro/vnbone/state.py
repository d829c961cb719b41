"""Per-router IPvN state and the IPvN forwarding table.

A router that deploys IPvN gets a :class:`VnRouterState` attached to its
``vn_states`` slots.  The state holds the router's native IPvN address,
its vN-Bone neighbor set (virtual links — IPv4 tunnels), and its IPvN
FIB.

IPvN FIB entries are richer than IPv4 ones because the vN-Bone has
three ways to dispose of a packet (Section 3.4):

* ``FORWARD`` — tunnel it to a vN-Bone neighbor;
* ``EGRESS`` — exit the vN-Bone: encapsulate towards an IPv4 address
  (a destination host, or the packet's own IPv(N-1) option address);
* ``LOCAL`` — this router is the destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Dict, Iterable, Optional

from repro.net.address import VN_BITS, IPv4Address, Prefix, VNAddress
from repro.net.errors import RoutingError
from repro.net.lpm import PrefixTable
from repro.net.node import Watched


class VnAction(Enum):
    FORWARD = "forward"
    EGRESS = "egress"
    LOCAL = "local"


@dataclass(frozen=True, slots=True)
class VnFibEntry:
    """One IPvN forwarding decision."""

    prefix: Prefix
    action: VnAction
    #: vN-Bone neighbor to tunnel to (FORWARD only).
    next_hop: Optional[str] = None
    #: IPv4 address to exit towards (EGRESS); None means "use the
    #: packet's own IPv(N-1) destination" (option field / self-address).
    egress_ipv4: Optional[IPv4Address] = None
    metric: float = 0.0
    #: Which mechanism installed the entry: "intra", "bgpvn", "host",
    #: "proxy", "egress-select".
    origin: str = ""

    def __post_init__(self) -> None:
        if self.action is VnAction.FORWARD and self.next_hop is None:
            raise RoutingError(f"FORWARD entry for {self.prefix} needs a next hop")


class VnFib(Watched):
    """Longest-prefix-match table over the 64-bit IPvN family."""

    def __init__(self) -> None:
        self._table: PrefixTable[VnFibEntry] = PrefixTable(VN_BITS)

    def write(self, prefix: Prefix, action: VnAction,
              next_hop: Optional[str], egress_ipv4: Optional[IPv4Address],
              metric: float, origin: str) -> bool:
        """Install this row unless the installed one already says the
        same; True when it wrote.  No entry is built for an unchanged
        row — the one install rule of both vN-Bone routings."""
        current = self._table.get(prefix)
        if (current is not None and current.action is action
                and current.next_hop == next_hop
                and current.egress_ipv4 == egress_ipv4
                and current.metric == metric and current.origin == origin):
            return False
        self._table.insert(prefix, VnFibEntry(prefix, action, next_hop,
                                              egress_ipv4, metric, origin))
        self._changed()
        return True

    def retain(self, kept: Collection[Prefix]) -> int:
        """Remove every row whose prefix is not in *kept* and return how
        many went.  *kept* holds installed prefixes only (the rows just
        written), so equal sizes prove nothing is stale."""
        if len(self._table) == len(kept):
            return 0
        keep = set(kept)
        stale = [prefix for prefix, _ in self._table.items()
                 if prefix not in keep]
        for prefix in stale:
            self._table.remove(prefix)
        if stale:
            self._changed()
        return len(stale)

    def remove(self, prefixes: Iterable[Prefix]) -> int:
        """Remove the rows of *prefixes* that are installed and return
        how many went; a prefix with no row is passed over."""
        table = self._table
        removed = 0
        for prefix in prefixes:
            if prefix in table:
                table.remove(prefix)
                removed += 1
        if removed:
            self._changed()
        return removed

    def lookup(self, address: VNAddress) -> Optional[VnFibEntry]:
        match = self._table.lookup(address)
        return match[1] if match is not None else None

    def route_count(self) -> int:
        return len(self._table)


@dataclass
class VnRouterState:
    """Everything a router knows about one IPvN deployment."""

    version: int
    router_id: str
    vn_address: VNAddress
    fib: VnFib = field(default_factory=VnFib)
    #: vN-Bone neighbors: router id -> virtual-link cost (underlying
    #: IPv4 path cost between the tunnel endpoints).
    neighbors: Dict[str, float] = field(default_factory=dict)
    #: Whether this router terminates inter-domain vN tunnels.
    is_vn_border: bool = False
    #: Multicast forwarding state per group address (see
    #: :mod:`repro.vnbone.multicast`); empty unless the deployment has
    #: multicast enabled and this router is tree- or core-relevant.
    mcast_groups: Dict[object, object] = field(default_factory=dict)

    def add_neighbor(self, router_id: str, cost: float) -> None:
        if router_id == self.router_id:
            raise RoutingError(f"{self.router_id} cannot be its own vN neighbor")
        current = self.neighbors.get(router_id)
        if current is None or cost < current:
            self.neighbors[router_id] = cost


def vn_prefix_for_ipv4(prefix: Prefix, version: int = 8) -> Prefix:
    """The IPvN prefix covering all self-assigned addresses whose
    embedded IPv4 address falls inside *prefix*.

    Self-assigned addresses are ``FLAG | ipv4`` with the 31 bits between
    flag and the IPv4 value zero, so an IPv4 /L maps to an IPvN
    /(32+L).
    """
    from repro.net.address import SELF_ADDRESS_FLAG  # local import, no cycle

    value = SELF_ADDRESS_FLAG | prefix.address.value
    return Prefix(VNAddress(value, version=version), 32 + prefix.plen)


def native_domain_prefix(asn: int, version: int = 8) -> Prefix:
    """The native IPvN block of an adopting domain: ``asn << 32`` /32.

    Native (provider-assigned) addresses have the self-addressing flag
    clear; the top half encodes the home ASN, the bottom half numbers
    hosts and routers.
    """
    if not 0 < asn < (1 << 31):
        raise RoutingError(f"ASN {asn} out of range for native IPvN block")
    return Prefix(VNAddress(asn << 32, version=version), 32)
