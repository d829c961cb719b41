"""Host mobility over an IPvN: stable identity above a changing locator.

Mobility is one of the architectural pressures the paper's introduction
cites ([7]).  An IPvN deployed through the evolvability framework can
offer it with the pieces already on the table:

* the host's IPvN address is its stable identity — :meth:`MobilityService.
  enable` pins it so relabeling rules leave it alone;
* on a move, the host physically re-homes (new provider, new
  IPv(N-1) locator — plain IPv4 reachability to the old address dies,
  which is exactly the problem), anycasts for a nearby IPvN router,
  and has it advertise the pinned address from the new attachment —
  the same host-advertisement machinery Section 3.3.2 describes,
  turned from a rejected *default* into mobility's *registration*;
* correspondents keep sending to the same IPvN address throughout;
  after the registration converges, the vN-Bone steers their packets
  to the new location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.address import IPv4Address, VNAddress
from repro.net.errors import DeploymentError
from repro.vnbone.deployment import VnDeployment


@dataclass
class MoveRecord:
    """Bookkeeping for one completed move."""

    host_id: str
    old_asn: int
    new_asn: int
    old_ipv4: IPv4Address
    new_ipv4: IPv4Address
    advertiser: Optional[str]


class MobilityService:
    """Manages mobile hosts over one IPvN deployment."""

    def __init__(self, deployment: VnDeployment) -> None:
        self.deployment = deployment
        self.network = deployment.network
        self.moves: List[MoveRecord] = []
        self._mobile: Dict[str, VNAddress] = {}

    # -- lifecycle -------------------------------------------------------------
    def enable(self, host_id: str) -> VNAddress:
        """Make *host_id* mobile: pin its IPvN address as its identity."""
        address = self.deployment.plan.pin_address(host_id)
        self._mobile[host_id] = address
        return address

    def identity_of(self, host_id: str) -> VNAddress:
        try:
            return self._mobile[host_id]
        except KeyError:
            raise DeploymentError(
                f"{host_id!r} is not mobility-enabled") from None

    # -- the move --------------------------------------------------------------------
    def move(self, host_id: str, new_asn: int,
             new_access_router: str) -> MoveRecord:
        """Re-home *host_id* and re-register its pinned address.

        Performs the physical move (new provider, new IPv4 locator),
        reconverges the control planes, then runs the registration:
        the host anycasts for a nearby IPvN router, which advertises
        the pinned IPvN address with the new IPv4 egress.
        """
        identity = self.identity_of(host_id)
        host = self.network.node(host_id)
        old_asn = host.domain_id
        old_ipv4 = host.ipv4
        self.network.move_host(host_id, new_asn, new_access_router)
        # The move changed IGP-visible attachments; reconverge before
        # the host can anycast from its new location.
        self.deployment.rebuild()
        advertiser = self.deployment.scheme.resolve(host_id)
        if advertiser is not None:
            self.deployment.host_registry.register(host_id, advertiser)
        # Keep the host answering to its pinned identity.
        host.assign_vn_address(identity)
        self.deployment.rebuild()
        record = MoveRecord(host_id=host_id, old_asn=old_asn, new_asn=new_asn,
                            old_ipv4=old_ipv4, new_ipv4=host.ipv4,
                            advertiser=advertiser)
        self.moves.append(record)
        return record

    # -- measurement --------------------------------------------------------------------
    def reach(self, src_host_id: str, mobile_host_id: str):
        """A correspondent packet towards the mobile host's identity."""
        return self.deployment.send(src_host_id, mobile_host_id)

    def ipv4_reach_old_locator(self, src_host_id: str,
                               record: MoveRecord):
        """The broken baseline: plain IPv4 to the pre-move locator."""
        from repro.net.packet import ipv4_packet

        src = self.network.node(src_host_id)
        packet = ipv4_packet(src.ipv4, record.old_ipv4)
        return self.deployment.orchestrator.forward(packet, src_host_id)
