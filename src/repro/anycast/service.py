"""The anycast service façade shared by all deployment schemes.

An :class:`AnycastScheme` manages one anycast group — in the paper, one
group per IPvN generation being deployed.  Membership is exactly the
RFC 1546 model the paper adopts in its "stripped down" form
(Section 3.1): only configured routers inside the infrastructure are
members, membership is controlled by ISPs, and a member simply

1. *accepts* packets addressed to the anycast address (local-address
   set), and
2. *advertises* a route to it — into its domain's IGP always, and
   inter-domain according to the scheme.

Concrete schemes differ only in the inter-domain part:

* :class:`~repro.anycast.global_routes.GlobalAnycast` — option 1,
  non-aggregatable prefixes in BGP;
* :class:`~repro.anycast.default_routes.DefaultRootedAnycast` —
  option 2, addresses rooted in a default ISP;
* :class:`~repro.anycast.gia.GiaAnycast` — the GIA comparison point.

``resolve()`` answers "which member does a packet from here reach?" by
actually forwarding a probe through the data plane, so every experiment
measures the real mechanism rather than an oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.errors import DeploymentError
from repro.net.forwarding import ForwardingTrace, Outcome
from repro.net.packet import ipv4_packet
from repro.core.orchestrator import Orchestrator


class AnycastScheme(abc.ABC):
    """One anycast group under one deployment scheme."""

    def __init__(self, orchestrator: Orchestrator, name: str) -> None:
        self.orchestrator = orchestrator
        self.network = orchestrator.network
        self.name = name
        self._members: Set[str] = set()
        self._member_domains: Set[int] = set()
        self._address: Optional[IPv4Address] = None

    # -- scheme-specific hooks -------------------------------------------------
    @abc.abstractmethod
    def allocate_address(self) -> IPv4Address:
        """Pick the group's anycast address (scheme-specific address space)."""

    @abc.abstractmethod
    def on_domain_joined(self, asn: int) -> None:
        """Inter-domain actions when a domain gains its first member."""

    @abc.abstractmethod
    def on_domain_left(self, asn: int) -> None:
        """Inter-domain actions when a domain loses its last member."""

    def post_converge_install(self) -> None:
        """Hook run after each orchestrator convergence.

        Most schemes need nothing here; GIA derives its forwarding
        aliases from the converged unicast tables at this point.
        """

    # -- common machinery ----------------------------------------------------------
    @property
    def address(self) -> IPv4Address:
        if self._address is None:
            self._address = self.allocate_address()
        return self._address

    @property
    def members(self) -> Set[str]:
        return set(self._members)

    @property
    def member_domains(self) -> Set[int]:
        return set(self._member_domains)

    def add_member(self, router_id: str) -> None:
        """Configure *router_id* as a group member (accept + advertise)."""
        if router_id in self._members:
            return
        node = self.network.node(router_id)
        if not node.is_router:
            raise DeploymentError(f"{router_id!r} is a host; anycast members are routers")
        address = self.address
        node.add_local_ipv4(address)
        self.orchestrator.igp(node.domain_id).advertise_anycast(router_id, address)
        self._members.add(router_id)
        if node.domain_id not in self._member_domains:
            self._member_domains.add(node.domain_id)
            self.on_domain_joined(node.domain_id)

    def remove_member(self, router_id: str) -> None:
        if router_id not in self._members:
            return
        node = self.network.node(router_id)
        node.remove_local_ipv4(self.address)
        self.orchestrator.igp(node.domain_id).withdraw_anycast(router_id, self.address)
        self._members.discard(router_id)
        domain_members = {m for m in self._members
                          if self.network.node(m).domain_id == node.domain_id}
        if not domain_members:
            self._member_domains.discard(node.domain_id)
            self.on_domain_left(node.domain_id)

    def members_in_domain(self, asn: int) -> Set[str]:
        return {m for m in self._members if self.network.node(m).domain_id == asn}

    # -- resolution and quality metrics ------------------------------------------------
    def resolve(self, start_node_id: str) -> Optional[str]:
        """The member a packet from *start_node_id* actually reaches."""
        trace = self.probe(start_node_id)
        if trace.outcome is not Outcome.DELIVERED:
            return None
        return trace.delivered_to

    def probe(self, start_node_id: str) -> ForwardingTrace:
        """Forward a real probe packet to the anycast address."""
        node = self.network.node(start_node_id)
        packet = ipv4_packet(node.ipv4, self.address)
        return self.orchestrator.forward(packet, start_node_id)

    def path_cost(self, trace: ForwardingTrace) -> float:
        """Sum of link costs along a probe's path."""
        path = trace.node_path()
        total = 0.0
        for a, b in zip(path, path[1:]):
            link = self.network.link_between(a, b)
            if link is not None:
                total += link.cost
        return total

    def optimal_member_cost(self, start_node_id: str) -> Optional[Tuple[str, float]]:
        """The truly closest member and its shortest-path cost (oracle)."""
        best: Optional[Tuple[str, float]] = None
        for member in sorted(self._members):
            result = self.network.shortest_path(start_node_id, member)
            if result is None:
                continue
            cost, _ = result
            if best is None or cost < best[1]:
                best = (member, cost)
        return best

    def proximity_stretch(self, start_node_id: str) -> Optional[float]:
        """Actual probe cost divided by the oracle-closest member cost.

        1.0 means the scheme found the true closest member; ``None``
        means the probe did not reach any member (access failure).
        """
        trace = self.probe(start_node_id)
        if trace.outcome is not Outcome.DELIVERED:
            return None
        actual = self.path_cost(trace)
        oracle = self.optimal_member_cost(start_node_id)
        if oracle is None:
            return None
        _, optimal = oracle
        if optimal == 0.0:
            return 1.0
        return actual / optimal

    # -- state accounting (experiment E5) -------------------------------------------------
    def routing_state_added(self) -> Dict[int, int]:
        """Extra inter-domain routing-table entries per AS due to this group.

        Computed from the BGP Loc-RIBs: entries whose prefix is the
        group's host route.
        """
        pfx = Prefix.host(self.address)
        counts: Dict[int, int] = {}
        for asn, speaker in self.orchestrator.bgp.speakers.items():
            counts[asn] = 1 if pfx in speaker.loc_rib else 0
        return counts

    def describe(self) -> str:
        return (f"{type(self).__name__}({self.name}, address={self.address}, "
                f"members={len(self._members)} in {len(self._member_domains)} domains)")
