"""One IPvN deployment: the facade tying every mechanism together.

:class:`VnDeployment` is what an experiment drives: it owns the anycast
group for one IPvN generation, the address plan, the vN-Bone topology
and routing, and the host send path.  The lifecycle mirrors the paper's
story:

1. ISPs adopt (:meth:`deploy`) — possibly on a subset of their routers
   (assumption A1).  Their IPvN routers join the anycast group and
   receive native IPvN addresses; the domain's hosts are (re)labeled.
2. :meth:`rebuild` reconverges the IPv(N-1) control planes, constructs
   the vN-Bone, and computes IPvN routes, including egress selection
   for destinations in non-adopting domains.
3. Hosts communicate (:meth:`send`): the source encapsulates its IPvN
   packet in IPv4 addressed to the deployment's anycast address;
   anycast redirection finds the nearest IPvN router; the vN-Bone
   carries it; the egress exits towards the destination.

Universal access is the invariant: :meth:`send` works for *any* pair of
IPvN-aware hosts at any nonzero deployment, with zero per-host
configuration beyond the well-known anycast address.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Dict, List, Optional, Set, Union

from repro.net.address import Prefix
from repro.net.domain import Domain
from repro.net.errors import DeploymentError, ParameterError
from repro.net.forwarding import ForwardingTrace
from repro.net.packet import IPv4Header, Packet, VNHeader
from repro.core.orchestrator import Orchestrator
from repro.anycast.service import AnycastScheme
from repro.vnbone.addressing import VnAddressPlan
from repro.vnbone.bgpvn import LayeredVnRouting
from repro.vnbone.egress import (EgressPolicy, HostRegistry,
                                 external_owner_entries)
from repro.vnbone.routing import OwnerEntry, VnRouting, make_vn_handler
from repro.vnbone.state import VnAction, VnRouterState
from repro.vnbone.topology import VnBoneTopology, VnTunnel


#: Knuth's multiplicative-hash constant: spreads consecutive ASNs into
#: well-separated seeds for per-AS adoption sampling.
_ADOPTION_SEED_SALT = 2_654_435_761


def adoption_rng(asn: int, seed: int = 0) -> random.Random:
    """The canonical seeded RNG for AS *asn*'s fractional (A1) adoption.

    Every fractional :meth:`VnDeployment.deploy` call site threads one
    of these explicitly — there is no implicit fallback — so which
    routers upgrade is a pure function of ``(asn, seed)`` and the
    determinism linter's D1 rule holds across the tree.
    """
    return random.Random(asn * _ADOPTION_SEED_SALT + seed)


class VnDeployment:
    """A (possibly partial) deployment of one next-generation IP."""

    def __init__(self, orchestrator: Orchestrator, scheme: AnycastScheme,
                 version: int = 8, k_neighbors: int = 2,
                 egress_policy: EgressPolicy = EgressPolicy.BGP_INFORMED,
                 proxy_threshold: int = 1, fallback_exit: bool = True,
                 routing_mode: str = "global-spf") -> None:
        if proxy_threshold < 0:
            raise ParameterError("proxy threshold must be non-negative")
        self.orchestrator = orchestrator
        self.network = orchestrator.network
        self.scheme = scheme
        self.version = version
        self.egress_policy = egress_policy
        self.plan = VnAddressPlan(self.network, version=version)
        anchor = getattr(scheme, "default_asn", None)
        self.topology = VnBoneTopology(orchestrator, version,
                                       k_neighbors=k_neighbors, anchor_asn=anchor)
        self.routing: Union[VnRouting, LayeredVnRouting]
        if routing_mode == "global-spf":
            self.routing = VnRouting(self.network, version)
        elif routing_mode == "layered":
            self.routing = LayeredVnRouting(self.network, version)
        else:
            raise DeploymentError(
                f"unknown routing_mode {routing_mode!r}; "
                "choose 'global-spf' or 'layered'")
        #: Maximum IPv(N-1) AS-path length at which a member still
        #: proxies a destination domain under ``EgressPolicy.PROXY``
        #: (1 = direct neighbors only).
        self.proxy_threshold = proxy_threshold
        self.host_registry = HostRegistry(version)
        self.states: Dict[str, VnRouterState] = {}
        self.tunnels: List[VnTunnel] = []
        self._join_order: Dict[str, int] = {}
        self._join_counter = itertools.count(1)
        self._dirty = True
        orchestrator.engine.register_vn_handler(
            version, make_vn_handler(version, fallback_exit=fallback_exit))

    # -- adoption lifecycle -------------------------------------------------------
    def deploy(self, asn: int, router_ids: Optional[Set[str]] = None,
               fraction: Optional[float] = None,
               rng: Optional[random.Random] = None) -> Set[str]:
        """Have AS *asn* adopt IPvN on some of its routers.

        With neither ``router_ids`` nor ``fraction`` the whole domain
        upgrades; ``fraction`` picks a pseudo-random subset (at least
        one router) — assumption A1's partial intra-ISP deployment —
        drawn from *rng*, which fractional callers must supply
        explicitly (:func:`adoption_rng` is the canonical choice).
        """
        domain = self._domain(asn)
        available = sorted(domain.routers)
        if not available:
            raise DeploymentError(f"AS{asn} has no routers to upgrade")
        if router_ids is not None:
            chosen = set(router_ids)
        elif fraction is not None:
            if not 0.0 < fraction <= 1.0:
                raise DeploymentError(f"fraction must be in (0, 1], got {fraction}")
            if rng is None:
                raise DeploymentError(
                    "fractional deployment needs an explicit seeded rng "
                    "(e.g. rng=adoption_rng(asn)); the implicit per-AS "
                    "fallback was removed so all randomness is threaded")
            count = max(1, math.ceil(fraction * len(available)))
            chosen = set(rng.sample(available, count))
        else:
            chosen = set(available)
        domain.deploy_version(self.version, chosen)
        for router_id in sorted(chosen):
            self._make_member(router_id, asn)
        self.plan.relabel_domain(asn)
        self._dirty = True
        return chosen

    def _domain(self, asn: int) -> Domain:
        try:
            return self.network.domains[asn]
        except KeyError:
            raise DeploymentError(f"unknown domain AS{asn}") from None

    def _make_member(self, router_id: str, asn: int) -> None:
        if router_id in self.states:
            return
        node = self.network.node(router_id)
        state = VnRouterState(version=self.version, router_id=router_id,
                              vn_address=self.plan.allocate_native(asn))
        node.set_vn_state(self.version, state)
        self.states[router_id] = state
        self._join_order[router_id] = next(self._join_counter)
        self.scheme.add_member(router_id)

    def expand(self, asn: int, router_ids: Set[str]) -> None:
        """Upgrade additional routers of an already-adopting AS."""
        domain = self._domain(asn)
        if not domain.deploys(self.version):
            raise DeploymentError(f"AS{asn} has not adopted IPv{self.version} yet")
        domain.deploy_version(self.version, set(router_ids))
        for router_id in sorted(router_ids):
            self._make_member(router_id, asn)
        self._dirty = True

    def undeploy(self, asn: int) -> None:
        """Roll IPvN back in AS *asn* (churn experiments)."""
        domain = self._domain(asn)
        for router_id in sorted(domain.vn_router_ids(self.version)):
            self.scheme.remove_member(router_id)
            node = self.network.node(router_id)
            node.clear_vn_state(self.version)
            self.states.pop(router_id, None)
            self._join_order.pop(router_id, None)
        domain.undeploy_version(self.version)
        self.plan.relabel_domain(asn)
        self._dirty = True

    # -- control-plane rebuild ---------------------------------------------------------
    def rebuild(self) -> None:
        """Reconverge everything after adoption (or liveness) changes."""
        obs = self.orchestrator.obs
        observed = obs.enabled
        if observed:
            wall_t0 = time.perf_counter()
        # The nested orchestrator.reconverge span (the BGP-resync drain)
        # runs under this one, which is how the offline critical-path
        # report separates resync time from vN-Bone rebuild time.
        span = obs.span("vnbone.rebuild", t=self.orchestrator.scheduler.now,
                        version=self.version).start()
        ctx = span.context
        if ctx is not None:
            obs.push_span_context(ctx)
        try:
            self.orchestrator.reconverge()
        finally:
            if ctx is not None:
                obs.pop_span_context()
        self.scheme.post_converge_install()
        # Crashed members cannot terminate tunnels or own prefixes; the
        # vN-Bone is rebuilt over the survivors so that delivery fails
        # over exactly as the paper's anycast argument promises.
        live = self.live_members()
        members_by_domain = {
            asn: members & live
            for asn, members in self.members_by_domain().items()}
        members_by_domain = {asn: members
                             for asn, members in members_by_domain.items()
                             if members}
        self.tunnels = self.topology.build(members_by_domain, self._join_order)
        for state in self.states.values():
            state.neighbors.clear()
            state.is_vn_border = False
        for tunnel in self.tunnels:
            state_a = self.states.get(tunnel.a)
            state_b = self.states.get(tunnel.b)
            if state_a is None or state_b is None:
                continue
            state_a.add_neighbor(tunnel.b, tunnel.cost)
            state_b.add_neighbor(tunnel.a, tunnel.cost)
            if (self.network.node(tunnel.a).domain_id
                    != self.network.node(tunnel.b).domain_id):
                state_a.is_vn_border = True
                state_b.is_vn_border = True
        entries = self._owner_entries(members_by_domain, live)
        self.routing.compute(self.states, entries)
        self._dirty = False
        span.end(t=self.orchestrator.scheduler.now, members=len(live),
                 tunnels=len(self.tunnels))
        if observed:
            wall_ms = (time.perf_counter() - wall_t0) * 1000.0
            obs.counter("vnbone.rebuilds").inc()
            obs.histogram("vnbone.rebuild_wall_ms").observe(wall_ms)
            obs.event("vnbone.rebuild",
                      t=self.orchestrator.scheduler.now,
                      version=self.version, members=len(live),
                      domains=len(members_by_domain),
                      tunnels=len(self.tunnels), wall_ms=wall_ms)

    def _owner_entries(self, members_by_domain: Dict[int, Set[str]],
                       live: Set[str]) -> List[OwnerEntry]:
        """Every prefix advertised into vN-Bone routing by the *live*
        members (*members_by_domain* is the same set, by AS)."""
        entries: List[OwnerEntry] = []
        members = sorted(live)
        # Members' own IPvN addresses.
        for router_id in members:
            state = self.states[router_id]
            entries.append(OwnerEntry(
                prefix=Prefix.host(state.vn_address), owner=router_id,
                action=VnAction.LOCAL, origin="intra"))
        # Native host addresses, owned by the member nearest the host.
        for asn in sorted(members_by_domain):
            domain_members = members_by_domain[asn]
            for host_id in sorted(self.network.domains[asn].hosts):
                host, address = self.plan.resolve(host_id)
                nearest = self.topology.nearest_member(host.access_router,
                                                       domain_members)
                if nearest is None:
                    continue
                entries.append(OwnerEntry(
                    prefix=Prefix.host(address), owner=nearest[1],
                    action=VnAction.EGRESS, egress_ipv4=host.ipv4,
                    origin="host"))
        # External (non-adopting) destination domains.
        entries.extend(external_owner_entries(
            self.network, self.orchestrator.bgp, self.version, members,
            self.egress_policy, set(members_by_domain),
            proxy_threshold=self.proxy_threshold))
        # Host-registry advertisements serve two callers: the rejected
        # HOST_ADVERTISED egress design, and mobility (a moved host's
        # pinned address advertised from its new attachment).
        entries.extend(self.host_registry.owner_entries(
            self.network, live))
        return entries

    # -- host data path --------------------------------------------------------------------
    def send(self, src_host_id: str, dst_host_id: str, payload: object = None,
             ttl: int = 64) -> ForwardingTrace:
        """Send an IPvN packet between two IPvN-aware hosts.

        The host stack does exactly what Section 3.1 prescribes:
        encapsulate the IPvN packet in IPv4 addressed to the well-known
        anycast address.  No other host configuration exists.
        """
        if self._dirty:
            self.rebuild()
        src, src_address = self.plan.resolve(src_host_id)
        packet = Packet([VNHeader(src_address,
                                  self.plan.resolve(dst_host_id)[1], ttl),
                         IPv4Header(src.ipv4, self.scheme.address)], payload)
        return self.orchestrator.forward(packet, src_host_id)

    def register_host(self, host_id: str) -> Optional[str]:
        """HOST_ADVERTISED egress: the host anycasts for a nearby IPvN
        router and has it advertise the host's temporary address."""
        if self._dirty:
            self.rebuild()
        self.plan.ensure_host_address(host_id)
        member = self.scheme.resolve(host_id)
        if member is None:
            return None
        self.host_registry.register(host_id, member)
        self._dirty = True
        return member

    # -- inspection ----------------------------------------------------------------------------
    def members(self) -> Set[str]:
        return set(self.states)

    def live_members(self) -> Set[str]:
        """Members whose router is currently up (fault injection)."""
        return {rid for rid in self.states if self.network.node(rid).up}

    def members_by_domain(self) -> Dict[int, Set[str]]:
        result: Dict[int, Set[str]] = {}
        for asn, domain in self.network.domains.items():
            members = domain.vn_router_ids(self.version)
            if members:
                result[asn] = members
        return result

    def adopting_asns(self) -> Set[int]:
        return set(self.members_by_domain())

    def state_of(self, router_id: str) -> VnRouterState:
        try:
            return self.states[router_id]
        except KeyError:
            raise DeploymentError(
                f"{router_id!r} is not an IPv{self.version} router") from None

    def vn_fib_sizes(self) -> Dict[str, int]:
        return {rid: state.fib.route_count()
                for rid, state in sorted(self.states.items())}

    @property
    def needs_rebuild(self) -> bool:
        return self._dirty
