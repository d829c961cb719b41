"""Egress selection for destinations outside the vN-Bone (Section 3.3.2).

When the destination's domain has not adopted IPvN, the destination
holds only a temporary self-assigned address that nobody advertises.
The paper examines several ways to pick the router where the packet
should *leave* the vN-Bone:

* ``EXIT_IMMEDIATELY`` — the "simplest option": the first IPvN router
  with no route exits towards the destination's IPv(N-1) address.
  This "fails to fully exploit IPvN deployment" (Figure 3's critique).
* ``BGP_INFORMED`` — the paper's preferred mechanism: IPvN border
  routers acquire BGPv(N-1) tables from their domain's IPv(N-1) border
  routers, so the vN-Bone can carry the packet to the member whose
  domain is *closest in IPv(N-1) terms* to the destination's domain,
  and exit there (Figure 3's improved path through Y).
* ``HOST_ADVERTISED`` — the rejected anycast-based design where the
  *endhost* locates a nearby IPvN router and has it advertise the
  host's temporary address.  Implemented for comparison; the paper
  keeps it on the table "in the case of IPvNs where [its] issues turn
  out to not be problematic".
* ``PROXY`` — advertising-by-proxy (Figure 4): only members within a
  threshold of IPv(N-1) AS hops advertise "their distance to Z";
  :func:`proxies_for_domain` names them.

Selection is realized by *advertising* external-domain prefixes into
vN-Bone routing (as :class:`~repro.vnbone.routing.OwnerEntry` items)
with an advertised cost dominated by the IPv(N-1) AS-path length; the
vN-Bone distance breaks ties, so "exit as close to the destination as
possible, then prefer the nearest such exit".
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.net.address import Prefix
from repro.net.network import Network
from repro.bgp.protocol import BgpProtocol
from repro.vnbone.state import VnAction, vn_prefix_for_ipv4
from repro.vnbone.routing import OwnerEntry

#: One IPv(N-1) AS hop dwarfs any intra-vN-Bone distance, making AS-path
#: length the primary selection key and vN distance the tie-break.
EGRESS_AS_HOP_COST = 10_000.0


class EgressPolicy(Enum):
    EXIT_IMMEDIATELY = "exit-immediately"
    BGP_INFORMED = "bgp-informed"
    PROXY = "proxy"
    HOST_ADVERTISED = "host-advertised"


def external_owner_entries(network: Network, bgp: BgpProtocol, version: int,
                           members: Iterable[str], policy: EgressPolicy,
                           adopting_asns: Set[int],
                           proxy_threshold: int = 1) -> List[OwnerEntry]:
    """Advertisements for the self-addressed blocks of non-IPvN domains.

    For ``BGP_INFORMED``, every member advertises every external domain
    at a cost proportional to its own domain's IPv(N-1) AS-path length
    to it.  For ``PROXY``, only members within ``proxy_threshold`` AS
    hops advertise (Figure 4: B and C advertise their distance to Z);
    other destinations are left to the exit-immediately fallback.
    ``EXIT_IMMEDIATELY`` and ``HOST_ADVERTISED`` advertise nothing here.
    """
    if policy in (EgressPolicy.EXIT_IMMEDIATELY, EgressPolicy.HOST_ADVERTISED):
        return []
    # An AS-path length belongs to the member's AS, and BGP carries few
    # of the destinations: each adopting speaker's Loc-RIB is walked
    # once and what it reaches is shared by that AS's members.
    members_by_asn: Dict[int, List[str]] = {}
    for member in sorted(set(members)):
        members_by_asn.setdefault(network.node(member).domain_id,
                                  []).append(member)
    external = {domain.prefix: asn for asn, domain in network.domains.items()
                if asn not in adopting_asns}
    #: destination AS -> advertising member -> advertised cost
    costs: Dict[int, Dict[str, float]] = {}
    for member_asn, asn_members in members_by_asn.items():
        for prefix, hops in _as_path_hops(bgp, member_asn):
            asn = external.get(prefix)
            if asn is None:
                continue  # adopting (natively routed), or not a domain block
            if policy is EgressPolicy.PROXY and hops > proxy_threshold:
                continue
            costs.setdefault(asn, {}).update(
                dict.fromkeys(asn_members, hops * EGRESS_AS_HOP_COST))
    origin = "egress-select" if policy is EgressPolicy.BGP_INFORMED else "proxy"
    entries: List[OwnerEntry] = []
    for asn in sorted(costs):
        vn_prefix = vn_prefix_for_ipv4(network.domains[asn].prefix,
                                       version=version)
        entries.extend(
            OwnerEntry(prefix=vn_prefix, owner=member, action=VnAction.EGRESS,
                       egress_ipv4=None, advertised_cost=cost, origin=origin)
            for member, cost in sorted(costs[asn].items()))
    return entries


def proxies_for_domain(network: Network, bgp: BgpProtocol, version: int,
                       asn: int, members: Iterable[str],
                       adopting_asns: Set[int],
                       proxy_threshold: int) -> List[str]:
    """Which of *members* proxy destination domain *asn* under
    ``PROXY`` (Figure 4's B and C)."""
    wanted = vn_prefix_for_ipv4(network.domains[asn].prefix, version=version)
    entries = external_owner_entries(network, bgp, version, members,
                                     EgressPolicy.PROXY, adopting_asns,
                                     proxy_threshold=proxy_threshold)
    return sorted({e.owner for e in entries if e.prefix == wanted})


def _as_path_hops(bgp: BgpProtocol,
                  from_asn: int) -> Iterator[Tuple[Prefix, int]]:
    """``(prefix, IPv(N-1) AS-path length)`` for every prefix *from_asn*
    has a route to; its own block is 0 hops away."""
    own = bgp.network.domains[from_asn].prefix
    yield own, 0
    for prefix, route in bgp.speaker(from_asn).loc_rib.items():
        if prefix != own:
            yield prefix, route.path_length


class HostRegistry:
    """State for the ``HOST_ADVERTISED`` design (the rejected option).

    Hosts in non-IPvN domains use anycast to locate a nearby IPvN
    router and have it advertise their temporary address into vN-Bone
    routing.  The registry records (host, advertising member) pairs;
    :meth:`owner_entries` turns them into advertisements.  Staleness —
    the fate-sharing concern the paper raises — is modeled by keeping
    the advertising member fixed until the host re-registers.
    """

    def __init__(self, version: int) -> None:
        self.version = version
        self._registrations: Dict[str, str] = {}

    def register(self, host_id: str, member_id: str) -> None:
        self._registrations[host_id] = member_id

    def deregister(self, host_id: str) -> None:
        self._registrations.pop(host_id, None)

    def advertiser_of(self, host_id: str) -> Optional[str]:
        return self._registrations.get(host_id)

    @property
    def registered_hosts(self) -> Set[str]:
        return set(self._registrations)

    def owner_entries(self, network: Network,
                      live_members: Set[str]) -> List[OwnerEntry]:
        entries: List[OwnerEntry] = []
        for host_id in sorted(self._registrations):
            member = self._registrations[host_id]
            if member not in live_members:
                continue  # fate-sharing: advertisement died with the router
            host = network.node(host_id)
            address = getattr(host, "vn_addresses", {}).get(self.version)
            if address is None:
                continue
            entries.append(OwnerEntry(prefix=Prefix.host(address), owner=member,
                                      action=VnAction.EGRESS,
                                      egress_ipv4=host.ipv4,
                                      advertised_cost=0.0,
                                      origin="host-advertised"))
        return entries
