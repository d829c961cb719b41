"""Application-level redirection baselines (Section 2.2).

The paper examines — and rejects — two application-level alternatives
to anycast redirection, both built around a *lookup service* that maps
a client to a nearby IPvN router:

* **ISP-run lookup** (:class:`IspLookupService`): each participating
  ISP answers queries, but only for its own customers (assumption A3
  forbids new contracts with other ISPs).  A client whose ISP does not
  participate simply has no service — universal access fails.
* **Third-party brokers** (:class:`BrokerLookupService`): consistent
  with universal access at a technical level, but they upset the market
  structure (``violates_market_structure`` is True), depend on ISPs
  *reporting* deployment to them (partial visibility), and answer from
  a cached snapshot that goes stale under deployment churn until the
  broker re-syncs.

Both services answer with the *unicast* address of an IPvN router; the
client tunnels there directly (:func:`app_level_send`), bypassing
anycast — so a stale answer means a blackholed packet, which is the
measurable cost experiment E7 reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Set

from repro.net.errors import RedirectionError
from repro.net.forwarding import ForwardingTrace
from repro.net.packet import IPv4Header, vn_packet
from repro.net.network import Network
from repro.vnbone.deployment import VnDeployment


@dataclass
class LookupAnswer:
    """A lookup service's referral."""

    router_id: str
    #: The service's (possibly stale) belief, for diagnostics.
    believed_member: bool = True


class LookupService(abc.ABC):
    """Base class: answers "which IPvN router should I tunnel to?"."""

    #: Whether using this service requires contracts beyond the client's
    #: existing access agreement (violates assumption A3).
    violates_market_structure = False

    def __init__(self, deployment: VnDeployment) -> None:
        self.deployment = deployment
        self.network: Network = deployment.network
        #: Cached deployment snapshot: member router ids.
        self._snapshot: Set[str] = set()
        self.queries = 0
        self.failures = 0
        self.stale_answers = 0

    def sync(self) -> None:
        """Refresh the service's view of deployment (scheme-specific scope)."""
        self._snapshot = self._visible_members()

    @abc.abstractmethod
    def _visible_members(self) -> Set[str]:
        """Members this service can learn about right now."""

    @abc.abstractmethod
    def _serves(self, client_id: str) -> bool:
        """Whether this service will answer *client_id* at all."""

    def query(self, client_id: str) -> Optional[LookupAnswer]:
        """Resolve a nearby IPvN router for *client_id*.

        Answers from the cached snapshot — distance-ranked by ground
        truth (a real service would use measurement infrastructure).
        Returns ``None`` when the service refuses or knows nothing.
        """
        self.queries += 1
        if not self._serves(client_id):
            self.failures += 1
            return None
        best: Optional[LookupAnswer] = None
        best_cost = float("inf")
        for member in sorted(self._snapshot):
            result = self.network.shortest_path(client_id, member)
            if result is None:
                continue
            cost, _ = result
            if cost < best_cost:
                best_cost = cost
                best = LookupAnswer(router_id=member)
        if best is None:
            self.failures += 1
            return None
        if best.router_id not in self.deployment.members():
            best.believed_member = False
            self.stale_answers += 1
        return best


class IspLookupService(LookupService):
    """One lookup service per participating ISP; serves only its clients.

    ``participants`` are the ASNs willing to run the service (the
    paper's point: non-offering ISPs have no incentive, A1/A2).  Cross-
    ISP queries would require new contracts, so they are refused.
    """

    def __init__(self, deployment: VnDeployment,
                 participants: Optional[Set[int]] = None) -> None:
        super().__init__(deployment)
        self.participants = participants

    def _participating(self, asn: int) -> bool:
        if self.participants is not None:
            return asn in self.participants
        # Default incentive model: exactly the adopting ISPs participate.
        return asn in self.deployment.adopting_asns()

    def _serves(self, client_id: str) -> bool:
        return self._participating(self.network.node(client_id).domain_id)

    def _visible_members(self) -> Set[str]:
        # ISPs exchange deployment information with each other, so a
        # participating ISP's service knows all members.
        return self.deployment.members()


class BrokerLookupService(LookupService):
    """A third-party broker aggregating ISP deployment reports.

    Any client may query it (universal access holds technically), but
    it only sees members of ISPs that *report* to it, and it answers
    from its last :meth:`sync` — the staleness knob for churn
    experiments.
    """

    violates_market_structure = True

    def __init__(self, deployment: VnDeployment,
                 reporting_asns: Optional[Set[int]] = None) -> None:
        super().__init__(deployment)
        self.reporting_asns = reporting_asns

    def _serves(self, client_id: str) -> bool:
        return True

    def _visible_members(self) -> Set[str]:
        members = self.deployment.members()
        if self.reporting_asns is None:
            return members
        return {m for m in members
                if self.network.node(m).domain_id in self.reporting_asns}


def app_level_send(deployment: VnDeployment, service: LookupService,
                   src_host_id: str, dst_host_id: str,
                   payload: object = None) -> ForwardingTrace:
    """Send an IPvN packet using application-level redirection.

    The client queries the lookup service and tunnels the IPvN packet
    to the referred router's *unicast* address.  A refused query yields
    a :class:`RedirectionError`; a stale referral typically yields a
    dropped trace (the target no longer processes IPvN).
    """
    if deployment.needs_rebuild:
        deployment.rebuild()
    answer = service.query(src_host_id)
    if answer is None:
        raise RedirectionError(
            f"no application-level redirection available for {src_host_id!r}")
    target = deployment.network.node(answer.router_id)
    src, src_addr = deployment.plan.resolve(src_host_id)
    dst_addr = deployment.plan.ensure_host_address(dst_host_id)
    packet = vn_packet(src_addr, dst_addr, payload=payload)
    packet.encapsulate(IPv4Header(src=src.ipv4, dst=target.ipv4))
    return deployment.orchestrator.forward(packet, src_host_id)
