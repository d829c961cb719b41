"""IP Multicast deployed *as an IPvN* over the evolvability framework.

The paper's central cautionary tale is IP Multicast: universally
implemented by router vendors, never deployed, because without
universal access no application could count on it.  This module closes
the loop by instantiating the framework with a multicast-capable IPvN:
group addresses live in a reserved slice of the IPvN space, the
vN-Bone doubles as the multicast distribution substrate, and — because
redirection is anycast — *any* host on the Internet can source to or
receive from a group the moment one ISP deploys.

The design is deliberately PIM-SM-shaped (the paper cites PIM-SM's use
of anycast for rendezvous-point discovery):

* each group has a **core** (rendezvous) router — the member that
  minimizes the total vN-Bone distance to the group's receivers;
* receivers **join** via their designated member router (the member
  nearest the receiver's attachment, anycast-style); the join grafts
  the vN-Bone shortest path from the core onto the shared tree;
* a source's packet reaches any IPvN router via anycast and is
  **registered** to the core through a vN-in-vN tunnel (the
  ``mcast_downstream`` header flag clear), then distributed down the
  shared tree (flag set), replicating only at branch points and exiting
  towards each receiver host over IPv(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import VN_BITS, IPv4Address, VNAddress
from repro.net.errors import DeploymentError, RoutingError
from repro.net.forwarding import MulticastTrace
from repro.net.node import Host
from repro.net.packet import IPv4Header, vn_packet
from repro.vnbone.deployment import VnDeployment

#: Bit 62 set (and the self-addressing bit 63 clear) marks a multicast
#: group address; the low bits number groups.
VN_MULTICAST_FLAG = 1 << (VN_BITS - 2)


def is_multicast(address: VNAddress) -> bool:
    """Whether an IPvN address is a multicast group address."""
    return bool(address.value & VN_MULTICAST_FLAG) and not address.is_self_assigned


def group_address(group_id: int, version: int = 8) -> VNAddress:
    """The IPvN address of multicast group *group_id*."""
    if not 0 < group_id < (1 << 32):
        raise DeploymentError(f"group id {group_id} out of range")
    return VNAddress(VN_MULTICAST_FLAG | group_id, version=version)


@dataclass(frozen=True)
class McastEntry:
    """Per-router multicast forwarding state for one group."""

    group: VNAddress
    core_id: str
    core_vn_address: VNAddress
    #: vN-Bone neighbors to replicate to when distributing down-tree.
    downstream: Tuple[str, ...] = ()
    #: Receiver hosts this router exits towards (designated router role).
    egress_hosts: Tuple[IPv4Address, ...] = ()


@dataclass
class GroupState:
    """Service-side bookkeeping for one group."""

    address: VNAddress
    receivers: Set[str] = field(default_factory=set)
    core_id: Optional[str] = None


class VnMulticastService:
    """Multicast group management over one IPvN deployment.

    Lifecycle: ``create_group`` -> hosts ``join``/``leave`` ->
    ``rebuild`` (after the deployment's own rebuild) -> ``send``.
    """

    def __init__(self, deployment: VnDeployment) -> None:
        self.deployment = deployment
        self.network = deployment.network
        self.version = deployment.version
        self.groups: Dict[VNAddress, GroupState] = {}
        self._next_group_id = 1

    # -- group management --------------------------------------------------------
    def create_group(self) -> VNAddress:
        address = group_address(self._next_group_id, version=self.version)
        self._next_group_id += 1
        self.groups[address] = GroupState(address=address)
        return address

    def join(self, group: VNAddress, host_id: str) -> None:
        """Host *host_id* becomes a receiver of *group*."""
        state = self._require_group(group)
        host = self.network.node(host_id)
        if not isinstance(host, Host):
            raise DeploymentError(f"{host_id!r} is not a host")
        state.receivers.add(host_id)
        host.vn_groups.add(group)

    def leave(self, group: VNAddress, host_id: str) -> None:
        state = self._require_group(group)
        state.receivers.discard(host_id)
        host = self.network.node(host_id)
        if isinstance(host, Host):
            host.leave_group(group)

    def _require_group(self, group: VNAddress) -> GroupState:
        try:
            return self.groups[group]
        except KeyError:
            raise DeploymentError(f"unknown multicast group {group}") from None

    # -- tree construction -----------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute cores and shared trees; install per-router state.

        Call after the deployment's :meth:`~VnDeployment.rebuild` so the
        vN-Bone topology and routing are current.
        """
        if self.deployment.needs_rebuild:
            self.deployment.rebuild()
        for state in self.deployment.states.values():
            state.mcast_groups = {}
        for group in sorted(self.groups, key=lambda g: g.value):
            self._build_group(self.groups[group])

    def _designated_router(self, host_id: str) -> Optional[str]:
        """The member that acts for *host_id* (nearest to its access)."""
        host = self.network.node(host_id)
        assert isinstance(host, Host)
        members_by_domain = self.deployment.members_by_domain()
        local_members = members_by_domain.get(host.domain_id)
        if local_members:
            nearest = self.deployment.topology.nearest_member(
                host.access_router, local_members)
            if nearest is not None:
                return nearest[1]
        # No member in the host's domain: its anycast-nearest member.
        return self.deployment.scheme.resolve(host.access_router)

    def _build_group(self, state: GroupState) -> None:
        routing = self.deployment.routing
        members = self.deployment.states
        if not members or not state.receivers:
            state.core_id = None
            return
        # Designated (egress) member per receiver.
        designated: Dict[str, List[str]] = {}
        for host_id in sorted(state.receivers):
            member = self._designated_router(host_id)
            if member is None:
                continue
            designated.setdefault(member, []).append(host_id)
        if not designated:
            state.core_id = None
            return
        # Core: member minimizing total vN distance to designated routers.
        best_core: Optional[Tuple[float, str]] = None
        for candidate in sorted(members):
            total = 0.0
            feasible = True
            for member in designated:
                dist = routing.distance(candidate, member)
                if dist is None:
                    feasible = False
                    break
                total += dist
            if feasible and (best_core is None or (total, candidate) < best_core):
                best_core = (total, candidate)
        if best_core is None:
            state.core_id = None
            return
        core_id = best_core[1]
        state.core_id = core_id
        # Shared tree: union of vN-Bone paths core -> designated routers.
        children: Dict[str, Set[str]] = {}
        on_tree: Set[str] = {core_id}
        for member in sorted(designated):
            path = routing.path(core_id, member)
            if path is None:
                continue
            for parent, child in zip(path, path[1:]):
                children.setdefault(parent, set()).add(child)
                on_tree.update((parent, child))
        # Install per-router entries: every member learns the core (for
        # source registration); tree routers also learn their downstream
        # branches and egress receivers.
        core_vn_address = members[core_id].vn_address
        for router_id, router_state in members.items():
            egress = tuple(self.network.node(h).ipv4
                           for h in designated.get(router_id, ()))
            entry = McastEntry(
                group=state.address, core_id=core_id,
                core_vn_address=core_vn_address,
                downstream=tuple(sorted(children.get(router_id, ()))),
                egress_hosts=egress)
            router_state.mcast_groups[state.address] = entry

    # -- data path ----------------------------------------------------------------------
    def send(self, src_host_id: str, group: VNAddress,
             payload: object = None, ttl: int = 64) -> MulticastTrace:
        """Source *src_host_id* multicasts to *group*.

        The host stack is unchanged from unicast IPvN: build the packet
        and encapsulate towards the deployment's anycast address — the
        source needs no knowledge of the core, the tree, or deployment.
        """
        self._require_group(group)
        src, src_addr = self.deployment.plan.resolve(src_host_id)
        packet = vn_packet(src_addr, group, payload=payload, ttl=ttl)
        packet.encapsulate(IPv4Header(src=src.ipv4,
                                      dst=self.deployment.scheme.address))
        return self.deployment.orchestrator.engine.forward_multicast(
            packet, src_host_id)

    # -- metrics ----------------------------------------------------------------------------
    def unicast_equivalent_cost(self, src_host_id: str,
                                group: VNAddress) -> Tuple[int, int]:
        """(total transmissions, max link stress) if the source instead
        sent one unicast IPvN packet per receiver — the baseline that
        shows multicast's bandwidth advantage."""
        state = self._require_group(group)
        transmissions = 0
        stress: Dict[Tuple[str, str], int] = {}
        for host_id in sorted(state.receivers):
            trace = self.deployment.send(src_host_id, host_id)
            transmissions += trace.physical_hops
            path = trace.node_path()
            for a, b in zip(path, path[1:]):
                link = self.network.link_between(a, b)
                if link is not None:
                    key = link.endpoints()
                    stress[key] = stress.get(key, 0) + 1
        return transmissions, (max(stress.values()) if stress else 0)


def make_multicast_aware_handler(version: int, base_handler):
    """Wrap a unicast vN handler with multicast group dispatch.

    Multicast-destined packets consult the router's per-group state:
    register towards the core when the distribution flag is clear,
    replicate down the shared tree (and out to receiver hosts) when it
    is set.  Everything else falls through to the unicast handler.
    """
    from repro.net.forwarding import (VnDrop, VnEgress, VnEncap, VnForward,
                                      VnReplicate)
    from repro.net.packet import VNHeader
    from repro.vnbone.state import VnRouterState

    def handler(node, packet):
        header = packet.outer
        assert isinstance(header, VNHeader)
        if not is_multicast(header.dst):
            return base_handler(node, packet)
        state = node.vn_state_for(version)
        if not isinstance(state, VnRouterState):
            return VnDrop(f"{node.node_id} has no IPv{version} state")
        entry = getattr(state, "mcast_groups", {}).get(header.dst)
        if entry is None:
            return VnDrop(f"no multicast state for {header.dst} "
                          f"at {node.node_id}")
        if not header.mcast_downstream:
            if state.router_id != entry.core_id:
                # Register: tunnel the packet to the core inside vN.
                return VnEncap(VNHeader(src=state.vn_address,
                                        dst=entry.core_vn_address))
            copies = tuple(VnForward(child) for child in entry.downstream)
            copies += tuple(VnEgress(ip) for ip in entry.egress_hosts)
            if not copies:
                return VnDrop(f"group {header.dst} has no receivers")
            return VnReplicate(copies=copies, mark_downstream=True)
        copies = tuple(VnForward(child) for child in entry.downstream)
        copies += tuple(VnEgress(ip) for ip in entry.egress_hosts)
        if not copies:
            return VnDrop(f"leaf {node.node_id} has no receivers for "
                          f"{header.dst}")
        return VnReplicate(copies=copies)

    return handler


def enable_multicast(deployment: VnDeployment) -> VnMulticastService:
    """Attach multicast capability to a deployment.

    Wraps the deployment's registered vN handler with group dispatch
    and returns the service managing groups and trees.
    """
    engine = deployment.orchestrator.engine
    base = engine.vn_handler(deployment.version)
    if base is None:
        raise RoutingError(
            f"IPv{deployment.version} has no handler registered yet")
    engine.register_vn_handler(
        deployment.version,
        make_multicast_aware_handler(deployment.version, base))
    return VnMulticastService(deployment)
