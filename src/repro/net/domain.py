"""Domains (autonomous systems) and inter-domain business relationships.

A :class:`Domain` groups routers and hosts under one administrative
authority: an ISP.  Each domain owns a unicast address block out of
which its routers, hosts — and, for the paper's "default ISP" anycast
scheme (Section 3.2 option 2), anycast addresses — are allocated.

Relationships between domains follow the standard Gao-Rexford model
(customer / provider / peer) which drives BGP export policy, and — per
the paper — also drives which neighbors an adopting ISP chooses to
advertise its anycast route to, and which inter-domain vN-Bone tunnels
get set up.

Deployment state lives here too: ``deployed_versions`` says which IPvN
generations this ISP offers, and ``vn_routers`` records *which* of its
routers run IPvN — assumption A1 requires mechanisms to work when only
a subset of an ISP's routers are upgraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.net.address import IPv4Address, Prefix
from repro.net.errors import AddressError, DeploymentError, TopologyError


class Relationship(Enum):
    """The business relationship a domain has *with* a neighbor.

    ``CUSTOMER`` means the neighbor is this domain's customer (they pay
    us); ``PROVIDER`` means the neighbor is our transit provider; peers
    exchange traffic settlement-free.
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"

    def reverse(self) -> "Relationship":
        """The relationship as seen from the other side."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


@dataclass
class Domain:
    """One ISP / autonomous system."""

    asn: int
    name: str
    prefix: Prefix
    #: Option-1 participation (Section 3.2): whether this ISP's routing
    #: policy permits propagating non-aggregatable anycast prefixes.
    propagates_anycast: bool = True
    tier: int = 2
    #: Scale-tier stubs: this AS does not speak BGP.  Its address block
    #: is a provider-assigned sub-block of its provider's aggregate, it
    #: points a static default route at the provider, and the provider
    #: carries a static route for the sub-block (see
    #: :mod:`repro.topogen.scale`).
    default_routed: bool = False

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise TopologyError(f"ASN must be positive, got {self.asn}")
        self.routers: Set[str] = set()
        self.border_routers: Set[str] = set()
        self.hosts: Set[str] = set()
        self.relationships: Dict[int, Relationship] = {}
        #: Section 3.1: "ISP W might, based on peering policies, choose
        #: to route anycast packets to ISP X before Y."  Local-pref
        #: overrides for anycast routes, keyed by the route's origin AS.
        #: Redirection control stays with ISPs, decentralized.
        self.anycast_origin_pref: Dict[int, int] = {}
        #: IPvN versions this ISP has deployed (possibly partially).
        self.deployed_versions: Set[int] = set()
        #: Per version, the subset of this ISP's routers running IPvN.
        self.vn_routers: Dict[int, Set[str]] = {}
        self._next_host_value = self.prefix.address.value + 1
        self._allocated: Set[IPv4Address] = set()

    def set_anycast_preference(self, origin_asn: int, local_pref: int) -> None:
        """Prefer (or depref) anycast routes originated by *origin_asn*."""
        self.anycast_origin_pref[origin_asn] = local_pref

    def clear_anycast_preferences(self) -> None:
        self.anycast_origin_pref.clear()

    # -- address allocation ---------------------------------------------
    def allocate_ipv4(self) -> IPv4Address:
        """Hand out the next unused address from this domain's block."""
        limit = self.prefix.address.value + (1 << (32 - self.prefix.plen))
        while self._next_host_value < limit:
            address = IPv4Address(self._next_host_value)
            self._next_host_value += 1
            if address not in self._allocated:
                self._allocated.add(address)
                return address
        raise AddressError(f"domain AS{self.asn} exhausted its block {self.prefix}")

    def reserve_ipv4(self, address: IPv4Address) -> IPv4Address:
        """Mark a specific in-block address as used (for anycast roots)."""
        if not self.prefix.contains(address):
            raise AddressError(f"{address} is outside AS{self.asn}'s block {self.prefix}")
        if address in self._allocated:
            raise AddressError(f"{address} already allocated in AS{self.asn}")
        self._allocated.add(address)
        return address

    # -- relationships ----------------------------------------------------
    def set_relationship(self, neighbor_asn: int, rel: Relationship) -> None:
        if neighbor_asn == self.asn:
            raise TopologyError(f"AS{self.asn} cannot have a relationship with itself")
        self.relationships[neighbor_asn] = rel

    def relationship_with(self, neighbor_asn: int) -> Optional[Relationship]:
        return self.relationships.get(neighbor_asn)

    def neighbor_asns(self) -> List[int]:
        return list(self.relationships)

    # -- IPvN deployment ---------------------------------------------------
    def deploys(self, version: int) -> bool:
        """Whether this ISP has (at least partially) deployed IPvN."""
        return version in self.deployed_versions

    def deploy_version(self, version: int, router_ids: Set[str]) -> None:
        """Record that *router_ids* (a subset of our routers) now run IPvN.

        Partial deployment within the ISP (assumption A1) is the normal
        case; pass all routers for a full upgrade.
        """
        unknown = router_ids - self.routers
        if unknown:
            raise DeploymentError(
                f"AS{self.asn} cannot deploy IPv{version} on foreign routers {sorted(unknown)}")
        if not router_ids:
            raise DeploymentError(f"AS{self.asn}: deployment needs at least one router")
        self.deployed_versions.add(version)
        self.vn_routers.setdefault(version, set()).update(router_ids)

    def undeploy_version(self, version: int) -> None:
        """Roll IPvN back entirely (used for churn experiments)."""
        self.deployed_versions.discard(version)
        self.vn_routers.pop(version, None)

    def vn_router_ids(self, version: int) -> Set[str]:
        """This ISP's IPvN-capable routers for *version* (may be empty)."""
        return set(self.vn_routers.get(version, set()))

    def __str__(self) -> str:
        return f"AS{self.asn}({self.name}, tier{self.tier}, {self.prefix})"
