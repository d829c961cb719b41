"""Inter-domain anycast, option 2: aggregatable addresses, default routes.

The paper's preferred scheme (Section 3.2): the anycast address is
carved out of the unicast block of a **default ISP** — e.g. the first
ISP to deploy IPvN.  Nothing new enters global BGP: packets to the
anycast address follow the ordinary route towards the default ISP, and
standard unicast routing "will deliver anycast packets to the closest
IPvN router along the path from the source to the default ISP",
because any adopting ISP on that path advertises the address in its IGP
and thereby intercepts the packet (longest-prefix match: the IGP host
route beats the BGP route to the default ISP's covering block).

To widen their reach, non-default adopters can enter *bilateral peering
agreements* to advertise their anycast route to chosen neighbors
(:meth:`DefaultRootedAnycast.advertise_to_neighbor`), which is the
optional, independently deployable optimization the paper leans on —
"even with no cooperation from non-IPvN domains, the above scheme will
route anycast correctly, although imperfectly in terms of proximity."
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.errors import DeploymentError
from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from repro.anycast.service import AnycastScheme


class DefaultRootedAnycast(AnycastScheme):
    """Option 2: the anycast address lives in the default ISP's block."""

    def __init__(self, orchestrator: Orchestrator, name: str,
                 default_asn: int) -> None:
        super().__init__(orchestrator, name)
        if default_asn not in self.network.domains:
            raise DeploymentError(f"unknown default ISP AS{default_asn}")
        self.default_asn = default_asn
        #: (advertiser_asn, neighbor_asn) bilateral advertisement edges.
        self._advertisements: Set[Tuple[int, int]] = set()

    def allocate_address(self) -> IPv4Address:
        """Reserve the highest free address of the default ISP's block.

        Scanning downward from the top keeps anycast addresses clear of
        the host/router allocations that grow upward from the bottom,
        and lets several concurrent deployments share a default ISP.
        """
        from repro.net.errors import AddressError

        domain = self.network.domains[self.default_asn]
        candidate = (domain.prefix.address.value
                     + (1 << (32 - domain.prefix.plen)) - 2)
        while candidate > domain.prefix.address.value:
            try:
                return domain.reserve_ipv4(IPv4Address(candidate))
            except AddressError:
                candidate -= 1
        raise DeploymentError(
            f"AS{self.default_asn} has no free address for an anycast group")

    def on_domain_joined(self, asn: int) -> None:
        """No inter-domain action needed — that is the whole point.

        The default ISP's covering block is already in BGP; adopters
        advertise only internally (done by the base class via the IGP).
        """

    def on_domain_left(self, asn: int) -> None:
        for advertiser, neighbor in sorted(self._advertisements):
            if advertiser == asn:
                self.withdraw_from_neighbor(advertiser, neighbor)

    # -- the optional inter-domain advertisement (Figure 2: Q peers with Y) ----
    def advertise_to_neighbor(self, advertiser_asn: int, neighbor_asn: int,
                              transitive: Optional[bool] = None) -> None:
        """Set up a bilateral anycast advertisement agreement.

        *advertiser_asn* (a member domain) announces the anycast host
        route to *neighbor_asn*, which has agreed to accept it.  The
        route is not re-exported further unless the policy's agreements
        are marked transitive.
        """
        if advertiser_asn not in self._member_domains:
            raise DeploymentError(
                f"AS{advertiser_asn} has no anycast members; nothing to advertise")
        if neighbor_asn not in self.network.domains[advertiser_asn].relationships:
            raise DeploymentError(
                f"AS{advertiser_asn} and AS{neighbor_asn} are not neighbors")
        pfx = Prefix.host(self.address)
        agreements = self.orchestrator.agreements
        if transitive is not None:
            agreements.transitive = transitive
        agreements.add(pfx, advertiser_asn, neighbor_asn)
        if (advertiser_asn, neighbor_asn) not in self._advertisements:
            self._advertisements.add((advertiser_asn, neighbor_asn))
        # (Re-)originate so the new agreement edge gets an announcement.
        self.orchestrator.bgp.withdraw(advertiser_asn, pfx)
        self.orchestrator.bgp.originate(advertiser_asn, pfx,
                                        scope=RouteScope.ANYCAST_BILATERAL)

    def withdraw_from_neighbor(self, advertiser_asn: int, neighbor_asn: int) -> None:
        pfx = Prefix.host(self.address)
        self.orchestrator.agreements.remove(pfx, advertiser_asn, neighbor_asn)
        self._advertisements.discard((advertiser_asn, neighbor_asn))
        remaining = {edge for edge in self._advertisements if edge[0] == advertiser_asn}
        if not remaining:
            self.orchestrator.bgp.withdraw(advertiser_asn, pfx)

    def default_share(self, sources: list) -> float:
        """Fraction of probes from *sources* terminating in the default ISP.

        Quantifies the paper's noted failing: "the default provider ...
        receives a larger than normal share of IPvN traffic."
        """
        if not sources:
            return 0.0
        hits = 0
        answered = 0
        for source in sources:
            member = self.resolve(source)
            if member is None:
                continue
            answered += 1
            if self.network.node(member).domain_id == self.default_asn:
                hits += 1
        return hits / answered if answered else 0.0
