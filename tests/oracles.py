"""Reference implementations the equivalence suites hold ``src/`` to.

``src/`` carries one implementation per mechanism; what it is compared
against lives here, as test code:

* :func:`early_exit_dijkstra` — the per-destination search
  :class:`~repro.perf.cache.PathCache` answers from a memoized tree;
* :func:`bellman_ford_first_hops` — distances and the smallest-first-hop
  tie-break ``first_hop_spf`` gives every IGP and vN FIB;
* :func:`reference_delay_tree` — the delay Dijkstra as its own loop
  over ``Network.neighbors``, which ``delay_tree`` must equal float for
  float; :func:`reference_best_replica` — that whole tree from the
  vantage, then a scan of the sorted replicas, which the early-exit
  ``DelayOracle.best_replica`` must equal float for float;
* :class:`FibOracle` — a FIB that keeps only the live offers and
  recomputes ``min((admin_distance, metric))`` on every read, which
  :class:`~repro.net.node.Fib`'s stored winners must equal;
* :func:`seed_bgp_fib` — the BGP rows of every FIB recomputed one
  (prefix, router) at a time from the Loc-RIBs, which grouped and
  incremental installation must reproduce; :func:`checked_bgp_installs`
  asserts it after every ``install_routes``;
* :func:`reference_export` — export over every AS-level neighbour, one
  policy decision and one prepended route per neighbour, keeping the
  updates whose receiver has a speaker, which per-session export must
  send pair for pair; :func:`checked_bgp_exports` asserts it for every
  ``_export`` and ``_export_withdrawal``;
* :func:`reference_igp_rows` — one router's IGP rows derived from
  protocol state alone (its LSDB through Bellman–Ford, or its
  distance-vector table), which the generation-gated install must
  leave in every FIB; :func:`checked_igp_installs` asserts it after
  every ``IgpProtocol.install_routes``, and :func:`refresh_gate_open`
  makes every ``LinkStateRouting.refresh`` scan, as it did before the
  gate;
* :func:`reference_vn_fibs` — the vN FIBs computed the way they were
  before selection shared its work: the AS-path length looked up once
  per (destination, member), prefixes and owners re-sorted for every
  member; :func:`reference_layered_vn_fibs` — the layered BGPvN FIBs
  from the deployment's tunnel list, one SPF sweep per domain, its own
  BGPvN solve and a per-row owner and border choice;
  :func:`checked_vn_rebuilds` asserts the one that matches the
  deployment's routing after every ``VnDeployment.rebuild``;
* :func:`paranoid_caches` — a fixture under which every cache hit,
  every flow the fast path replays, and every router and ``refresh()``
  the IGP gates skip is re-derived from scratch and compared, so a run
  that finishes has given exactly the answers an uncached, ungated run
  would have;
* :func:`reference_walk` — ``ForwardingEngine._walk`` as it was
  before the IPv4 segment loop: one :func:`reference_ipv4_step` per
  IPv4 hop, each building the decremented header and calling
  ``record``, which the segment loop must equal slot for slot;
* :func:`slow_path_held` — a flow fast path that never finds or stores
  a flow, so every packet walks hop by hop, to compare a run with one
  that used the fast path;
* :func:`per_message_bgp` — holds the lever ``src/`` selects from
  observable state (an active ``MessagePerturbation``) for a whole run,
  to compare it with a run that used MRAI batching;
* :func:`reference_validate_trace_lines` and
  :func:`reference_validate_span_lines` — the trace and span validators
  as they were before they skipped lines that cannot fail: every line
  parsed, every key of every event looked at, which the validators with
  prefilters must equal error for error.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from collections import Counter
from contextlib import contextmanager
from typing import (Deque, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

import pytest

from repro.bgp.protocol import BgpProtocol, BgpSpeaker
from repro.bgp.routes import BgpRoute, BgpUpdate
from repro.net.errors import (FaultDropError, ForwardingLoopError, NoRouteError,
                              TTLExpiredError)
from repro.net.fastpath import FlowFastPath
from repro.net.forwarding import (FAULT_ACTION, ForwardingEngine,
                                  ForwardingTrace, Outcome)
from repro.net.link import LinkScope
from repro.net.network import Network, first_hop_spf
from repro.net.address import Address, IPv4Address, Prefix
from repro.net.node import Fib, FibEntry, Node, RouteSource
from repro.net.packet import IPv4Header, Packet
from repro.net.simulator import EventScheduler, MessagePerturbation
from repro.obs import NULL_OBS
from repro.obs.spans import validate_span_events
from repro.obs.tracer import RUN_END, RUN_START, WALL_PREFIX, _KNOWN_SCHEMAS
from repro.perf.cache import TopologyMemo
from repro.routing.distancevector import DistanceVectorRouting
from repro.routing.igp import IgpProtocol
from repro.routing.linkstate import LinkStateRouting
from repro.vnbone.addressing import VnAddressPlan
from repro.vnbone.bgpvn import BgpVnRoute, BgpVnSolver
from repro.vnbone.deployment import VnDeployment
from repro.vnbone.egress import EGRESS_AS_HOP_COST, EgressPolicy
from repro.vnbone.routing import OwnerEntry, VnRouting
from repro.vnbone.state import (VnAction, VnFib, VnFibEntry,
                                vn_prefix_for_ipv4)

#: One ``Fib.snapshot()`` row: (prefix, source, next hop, metric).
FibRow = Tuple[str, str, str, float]


# -- table reads the simulator never makes --------------------------------------
def fib_entries(fib: Fib) -> List[FibEntry]:
    """The winning entry of every prefix installed in *fib*."""
    return [route.best for _, route in fib._table.items()]


def fib_get(fib: Fib, prefix: Prefix,
            source: Optional[RouteSource] = None) -> Optional[FibEntry]:
    """Exact-prefix read: the winner, or *source*'s own offer."""
    route = fib._table.get(prefix)
    if route is None:
        return None
    return route.best if source is None else route.offers.get(source)


def vn_fib_entries(fib: VnFib) -> List[VnFibEntry]:
    """Every row of *fib*, in the table's prefix order."""
    return [entry for _, entry in fib._table.items()]


def vn_fib_install(fib: VnFib, entry: VnFibEntry) -> None:
    """Write *entry*'s row into *fib*."""
    fib.write(entry.prefix, entry.action, entry.next_hop, entry.egress_ipv4,
              entry.metric, entry.origin)


# -- shortest paths -----------------------------------------------------------
def early_exit_dijkstra(network: Network, src: str, dst: str,
                        intra_domain_only: bool = False
                        ) -> Optional[Tuple[float, List[str]]]:
    """Dijkstra over live links that stops when *dst* is popped:
    ``(cost, node path)`` or ``None``.  No tree, no memo."""
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        for v, link in network.neighbors(u):
            if intra_domain_only and link.scope is LinkScope.INTER_DOMAIN:
                continue
            nd = d + link.cost
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return None


def bellman_ford_first_hops(source: str, edges: List[Tuple[str, str, float]]
                            ) -> Dict[str, Tuple[float, Optional[str]]]:
    """What ``first_hop_spf`` must return over undirected *edges*:
    Bellman–Ford distances, and per node the smallest first hop over
    its shortest-path predecessors ``u`` — ``u``'s own first hop, or the
    node itself when ``u`` is the source.  No heap, no settling order."""
    arcs = edges + [(b, a, cost) for a, b, cost in edges]
    dist: Dict[str, float] = {source: 0.0}
    for _ in range(len(arcs) + 1):
        for a, b, cost in arcs:
            if a in dist and dist[a] + cost < dist.get(b, float("inf")):
                dist[b] = dist[a] + cost
    first: Dict[str, Optional[str]] = {source: None}
    for node in sorted(dist, key=lambda n: dist[n]):  # predecessors first
        if node != source:
            first[node] = min(node if a == source else first[a]
                              for a, b, cost in arcs
                              if b == node and a in dist
                              and dist[a] + cost == dist[node])
    return {node: (dist[node], first[node]) for node in dist}


def reference_delay_tree(network: Network, src: str) -> Dict[str, float]:
    """Single-source shortest delay to every reachable live node, as
    :func:`~repro.measure.oracle.delay_tree` computed it while it was its
    own Dijkstra: ``Network.neighbors`` lists, a relaxation per live
    neighbour, strict ``<``, heap ``(delay, node)`` order."""
    if not network.node(src).up:
        return {}
    dist: Dict[str, float] = {src: 0.0}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for v, link in network.neighbors(u):
            if not network.node(v).up:
                continue
            nd = d + link.delay
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_best_replica(network: Network, src: str,
                           replicas: Iterable[str]
                           ) -> Optional[Tuple[str, float]]:
    """(replica, one-way delay) of the delay-closest live replica, read
    off the full :func:`reference_delay_tree`: the first minimum over
    the sorted replica ids.  No early exit, no memo."""
    tree = reference_delay_tree(network, src)
    best: Optional[Tuple[str, float]] = None
    for rid in sorted(set(replicas)):
        d = tree.get(rid)
        if d is None:
            continue
        if best is None or d < best[1]:
            best = (rid, d)
    return best


# -- admin-distance arbitration -------------------------------------------------
class FibOracle:
    """The live offers of a FIB and nothing else: every read scans them
    and recomputes the ``min((admin_distance, metric))`` winner."""

    def __init__(self) -> None:
        self.offers: Dict[Tuple[Prefix, RouteSource], FibEntry] = {}

    def install(self, entry: FibEntry) -> None:
        self.offers[entry.prefix, entry.source] = entry

    def withdraw(self, prefix: Prefix, source: RouteSource) -> bool:
        return self.offers.pop((prefix, source), None) is not None

    def withdraw_all(self, source: RouteSource) -> int:
        doomed = [key for key in self.offers if key[1] is source]
        for key in doomed:
            del self.offers[key]
        return len(doomed)

    def _winner(self, prefix: Prefix) -> Optional[FibEntry]:
        return min((entry for (pfx, _), entry in self.offers.items()
                    if pfx == prefix),
                   key=lambda e: (e.source.admin_distance, e.metric),
                   default=None)

    def get(self, prefix: Prefix,
            source: Optional[RouteSource] = None) -> Optional[FibEntry]:
        if source is not None:
            return self.offers.get((prefix, source))
        return self._winner(prefix)

    def lookup(self, address: Address) -> Optional[FibEntry]:
        covering = [pfx for pfx, _ in self.offers if pfx.contains(address)]
        if not covering:
            return None
        return self._winner(max(covering, key=lambda pfx: pfx.plen))

    def entries(self) -> List[FibEntry]:
        prefixes = sorted({pfx for pfx, _ in self.offers},
                          key=lambda pfx: (pfx.address.value, pfx.plen))
        return [entry for entry in map(self._winner, prefixes)
                if entry is not None]

    def snapshot(self, source: Optional[RouteSource] = None) -> List[FibRow]:
        return sorted((str(pfx), src.name, entry.next_hop or "", entry.metric)
                      for (pfx, src), entry in self.offers.items()
                      if source is None or src is source)

    def route_count(self) -> int:
        return len({pfx for pfx, _ in self.offers})


# -- BGP forwarding-state installation ----------------------------------------
class SeedFib(NamedTuple):
    """What per-prefix installation would have put in the FIBs."""

    #: node id -> sorted BGP rows, in ``Fib.snapshot()`` form.
    rows: Dict[str, List[FibRow]]
    #: IGP lookups the per-(prefix, router) hot-potato scans performed.
    lookups: int


def seed_bgp_fib(network: Network, bgp: BgpProtocol) -> SeedFib:
    """Recompute every router's BGP rows from the Loc-RIBs, one
    (prefix, router) at a time.

    Pure: reads Loc-RIBs, live inter-domain links and the IGP routes to
    border loopbacks; installs nothing and consults no cache or memo.
    """
    rows: Dict[str, List[FibRow]] = {node_id: [] for node_id in network.nodes}
    lookups = 0
    for asn, speaker in bgp.speakers.items():
        domain = network.domains[asn]
        for prefix, route in speaker.loc_rib.items():
            if route.originated:
                continue  # internal destinations are the IGP's job
            remote_by_border: Dict[str, str] = {}
            for border_id in sorted(domain.border_routers):
                for neighbor_id, _link in network.neighbors(
                        border_id, scope=LinkScope.INTER_DOMAIN):
                    if (network.node(neighbor_id).domain_id
                            == route.learned_from):
                        remote_by_border[border_id] = neighbor_id
            if not remote_by_border:
                continue  # session exists but no live physical link
            for router_id in domain.routers:
                if router_id in remote_by_border:
                    next_hop, metric = remote_by_border[router_id], 0.0
                else:
                    # Hot potato: the IGP-nearest egress border.
                    best: Optional[Tuple[float, str, str]] = None
                    fib = network.node(router_id).fib4
                    for border_id in sorted(remote_by_border):
                        lookups += 1
                        entry = fib.lookup(network.node(border_id).ipv4)
                        if entry is None or entry.next_hop is None:
                            continue
                        key = (entry.metric, border_id, entry.next_hop)
                        if best is None or key < best:
                            best = key
                    if best is None:
                        continue  # egress unreachable via IGP
                    metric, _border_id, next_hop = best
                rows[router_id].append(
                    (str(prefix), RouteSource.BGP.name, next_hop, metric))
    for node_rows in rows.values():
        node_rows.sort()
    return SeedFib(rows, lookups)


def installed_bgp_rows(network: Network) -> Dict[str, List[FibRow]]:
    """The BGP rows actually in every FIB (``seed_bgp_fib(...).rows`` form)."""
    return {node_id: node.fib4.snapshot(RouteSource.BGP)
            for node_id, node in network.nodes.items()}


@contextmanager
def checked_bgp_installs() -> Iterator[List[SeedFib]]:
    """Assert :func:`seed_bgp_fib` equality after every
    ``BgpProtocol.install_routes`` inside the block — initial
    convergence, every fault epoch, every incremental reinstall.
    Yields the list the per-install oracle results are appended to.

    Every router is compared, up or down: a crashed router's IGP view
    empties at the first ``refresh()`` after the crash, which moves no
    egress map, and its BGP rows must follow.
    """
    install_routes = BgpProtocol.install_routes
    checked: List[SeedFib] = []

    def install_and_check(self: BgpProtocol) -> None:
        install_routes(self)
        expected = seed_bgp_fib(self.network, self)
        installed = installed_bgp_rows(self.network)
        for node_id in self.network.nodes:
            assert installed[node_id] == expected.rows[node_id], node_id
        checked.append(expected)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BgpProtocol, "install_routes", install_and_check)
        yield checked


# -- BGP export ---------------------------------------------------------------
def reference_export(bgp: BgpProtocol, speaker: BgpSpeaker, prefix: Prefix,
                     route: Optional[BgpRoute]
                     ) -> List[Tuple[int, BgpUpdate]]:
    """What exporting *route* (``None``: a withdrawal) must hand to
    ``_send``, in order: the loop over **every** AS-level neighbour —
    export policy and a freshly prepended route per neighbour — keeping
    the ``(to_asn, update)`` pairs whose receiver has a speaker."""
    sends: List[Tuple[int, BgpUpdate]] = []
    for neighbor_asn in sorted(speaker.domain.neighbor_asns()):
        exported = None
        if route is not None and bgp.policy.should_export(
                speaker.domain, route, neighbor_asn):
            exported = route if route.originated else dataclasses.replace(
                route, as_path=(speaker.asn,) + route.as_path)
        if neighbor_asn in bgp.speakers:
            sends.append((neighbor_asn, BgpUpdate(
                sender_asn=speaker.asn, prefix=prefix, route=exported)))
    return sends


@contextmanager
def checked_bgp_exports() -> Iterator[Counter]:
    """Assert :func:`reference_export` equality — the same
    ``(to_asn, update)`` pairs handed to ``_send`` in the same order —
    for every ``BgpProtocol._export`` and ``_export_withdrawal`` inside
    the block.  Yields the running counts of exports checked and
    updates compared."""
    export = BgpProtocol._export
    export_withdrawal = BgpProtocol._export_withdrawal
    send = BgpProtocol._send
    checked: Counter = Counter()
    sends: List[Tuple[int, BgpUpdate]] = []

    def spy_send(self: BgpProtocol, to_asn: int, update: BgpUpdate) -> None:
        sends.append((to_asn, update))
        send(self, to_asn, update)

    def export_and_check(self: BgpProtocol, speaker: BgpSpeaker,
                         prefix: Prefix,
                         route: Optional[BgpRoute] = None) -> None:
        """Stands in for ``_export`` and, without *route*, for
        ``_export_withdrawal``."""
        expected = reference_export(self, speaker, prefix, route)
        sends.clear()
        if route is None:
            export_withdrawal(self, speaker, prefix)
        else:
            export(self, speaker, prefix, route)
        assert sends == expected, (speaker.asn, str(prefix))
        checked["exports"] += 1
        checked["updates"] += len(expected)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BgpProtocol, "_send", spy_send)
        patch.setattr(BgpProtocol, "_export", export_and_check)
        patch.setattr(BgpProtocol, "_export_withdrawal", export_and_check)
        yield checked


# -- IGP forwarding-state installation ----------------------------------------
def _igp_rows(entries: Iterable[FibEntry]) -> List[FibRow]:
    """``Fib.snapshot(RouteSource.IGP)`` of an empty FIB after *entries*
    were installed into it in order."""
    fib = Fib()
    for entry in entries:
        fib.install(entry)
    return fib.snapshot(RouteSource.IGP)


def reference_igp_rows(igp: IgpProtocol, router_id: str) -> List[FibRow]:
    """*router_id*'s IGP rows from protocol state alone, whatever was
    installed before: under distance-vector its table's reachable
    learned routes; under link-state its LSDB's two-way adjacencies
    through :func:`bellman_ford_first_hops`, every reachable origin's
    prefixes, and per anycast address the closest advertising member."""
    if isinstance(igp, DistanceVectorRouting):
        return _igp_rows(
            FibEntry(prefix=pfx, next_hop=route.next_hop,
                     source=RouteSource.IGP, metric=route.metric)
            for pfx, route in igp._tables[router_id].items()
            if route.next_hop is not None and route.reachable)
    assert isinstance(igp, LinkStateRouting)
    lsdb = igp._lsdb[router_id]
    edges = [(origin, neighbor, cost)
             for origin, lsa in lsdb.items()
             for neighbor, cost in lsa.neighbors
             if origin < neighbor and neighbor in lsdb
             and any(back == origin for back, _ in lsdb[neighbor].neighbors)]
    spf = bellman_ford_first_hops(router_id, edges)
    entries: List[FibEntry] = []
    for origin, lsa in lsdb.items():
        if origin != router_id and origin in spf:
            dist, first_hop = spf[origin]
            entries.extend(FibEntry(prefix=pfx, next_hop=first_hop,
                                    source=RouteSource.IGP, metric=dist)
                           for pfx in lsa.prefixes)
    for address in {addr for lsa in lsdb.values() for addr, _ in lsa.anycast}:
        closest = min(((spf[origin][0] + cost, origin)
                       for origin, lsa in lsdb.items() if origin in spf
                       for addr, cost in lsa.anycast if addr == address),
                      default=None)  # None: every advertiser is cut off
        if closest is not None and closest[1] != router_id:
            total, member = closest
            entries.append(FibEntry(prefix=Prefix.host(address),
                                    next_hop=spf[member][1],
                                    source=RouteSource.IGP, metric=total))
    return _igp_rows(entries)


@contextmanager
def checked_igp_installs() -> Iterator[Counter]:
    """Assert :func:`reference_igp_rows` equality on every router of the
    domain after every ``IgpProtocol.install_routes`` inside the block —
    written or skipped, up or down.  Yields the running counts of
    installs and routers checked."""
    install_routes = IgpProtocol.install_routes
    checked: Counter = Counter()

    def install_and_check(self: IgpProtocol) -> None:
        install_routes(self)
        for router_id in self.domain.routers:
            fib = self.network.node(router_id).fib4
            assert (fib.snapshot(RouteSource.IGP)
                    == reference_igp_rows(self, router_id)), router_id
        checked["installs"] += 1
        checked["routers"] += len(self.domain.routers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IgpProtocol, "install_routes", install_and_check)
        yield checked


@contextmanager
def refresh_gate_open() -> Iterator[None]:
    """Every ``LinkStateRouting.refresh`` in the block scans every
    router's LSA: what a skipped call proved is forgotten first."""
    refresh = LinkStateRouting.refresh

    def scan_always(self: LinkStateRouting) -> None:
        self._settled_at = None
        refresh(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinkStateRouting, "refresh", scan_always)
        yield


# -- vN-Bone routes -----------------------------------------------------------
def _reference_external_entries(deployment: VnDeployment, members: List[str],
                                adopting: Set[int]) -> List[OwnerEntry]:
    """``external_owner_entries`` asking BGP once per (destination,
    member)."""
    policy = deployment.egress_policy
    if policy in (EgressPolicy.EXIT_IMMEDIATELY, EgressPolicy.HOST_ADVERTISED):
        return []
    network, bgp = deployment.network, deployment.orchestrator.bgp
    entries: List[OwnerEntry] = []
    origin = "egress-select" if policy is EgressPolicy.BGP_INFORMED else "proxy"
    for asn in sorted(network.domains):
        if asn in adopting:
            continue
        domain_prefix = network.domains[asn].prefix
        vn_prefix = vn_prefix_for_ipv4(domain_prefix,
                                       version=deployment.version)
        for member in members:
            member_asn = network.node(member).domain_id
            if network.domains[member_asn].prefix == domain_prefix:
                hops: Optional[int] = 0
            else:
                route = bgp.speaker(member_asn).loc_rib.get(domain_prefix)
                hops = None if route is None else route.path_length
            if hops is None:
                continue
            if (policy is EgressPolicy.PROXY
                    and hops > deployment.proxy_threshold):
                continue
            entries.append(OwnerEntry(prefix=vn_prefix, owner=member,
                                      action=VnAction.EGRESS, egress_ipv4=None,
                                      advertised_cost=hops * EGRESS_AS_HOP_COST,
                                      origin=origin))
    return entries


def _reference_owner_entries(deployment: VnDeployment) -> List[OwnerEntry]:
    """``VnDeployment._owner_entries`` from the deployment's state now."""
    network = deployment.network
    live = deployment.live_members()
    members_by_domain = {asn: members & live for asn, members
                         in deployment.members_by_domain().items()
                         if members & live}
    entries = [OwnerEntry(prefix=Prefix.host(deployment.states[m].vn_address),
                          owner=m, action=VnAction.LOCAL, origin="intra")
               for m in sorted(live)]
    for asn in sorted(members_by_domain):
        for host_id in sorted(network.domains[asn].hosts):
            host = network.node(host_id)
            nearest = deployment.topology.nearest_member(
                host.access_router, members_by_domain[asn])
            if nearest is not None:
                entries.append(OwnerEntry(
                    prefix=Prefix.host(deployment.plan.host_address(host)),
                    owner=nearest[1], action=VnAction.EGRESS,
                    egress_ipv4=host.ipv4, origin="host"))
    entries.extend(_reference_external_entries(
        deployment, sorted(live), set(members_by_domain)))
    entries.extend(deployment.host_registry.owner_entries(network, live))
    return entries


def reference_owner_row(member: str, prefix: Prefix,
                        entries: List[OwnerEntry], dist: Dict[str, float],
                        first_hop: Dict[str, str]) -> Optional[VnFibEntry]:
    """*member*'s row for *prefix*: every one of *entries* re-sorted by
    owner, the first minimum of ``(distance + advertised cost, owner)``
    kept; ``None`` when no owner is reachable."""
    best: Optional[Tuple[float, str, OwnerEntry]] = None
    for entry in sorted(entries, key=lambda e: e.owner):
        if entry.owner == member:
            total = entry.advertised_cost
        elif entry.owner in dist:
            total = dist[entry.owner] + entry.advertised_cost
        else:
            continue
        if best is None or (total, entry.owner) < best[:2]:
            best = (total, entry.owner, entry)
    if best is None:
        return None
    total, owner, entry = best
    if owner == member:
        return VnFibEntry(prefix=prefix, action=entry.action,
                          egress_ipv4=entry.egress_ipv4, metric=total,
                          origin=entry.origin)
    return VnFibEntry(prefix=prefix, action=VnAction.FORWARD,
                      next_hop=first_hop[owner], metric=total,
                      origin=entry.origin)


def reference_vn_fibs(deployment: VnDeployment
                      ) -> Dict[str, List[VnFibEntry]]:
    """Every member's vN FIB entries, selected member by member and
    prefix by prefix (:func:`reference_owner_row`), prefixes re-sorted
    by ``str``.  Distances and first hops are the deployment's own SPF
    sweep."""
    routing = deployment.routing
    by_prefix: Dict[Prefix, List[OwnerEntry]] = {}
    for entry in _reference_owner_entries(deployment):
        by_prefix.setdefault(entry.prefix, []).append(entry)
    fibs: Dict[str, List[VnFibEntry]] = {}
    for member in deployment.states:
        fib = VnFib()
        dist = routing._dist.get(member, {})
        first_hop = routing._first_hop.get(member, {})
        for prefix in sorted(by_prefix, key=str):
            row = reference_owner_row(member, prefix, by_prefix[prefix],
                                      dist, first_hop)
            if row is not None:
                vn_fib_install(fib, row)
        fibs[member] = vn_fib_entries(fib)
    return fibs


def _layered_intra_spf(members: Set[str],
                       adjacency: Dict[str, Dict[str, float]]
                       ) -> Tuple[Dict[str, Dict[str, float]],
                                  Dict[str, Dict[str, str]]]:
    dists: Dict[str, Dict[str, float]] = {}
    hops: Dict[str, Dict[str, str]] = {}
    sorted_adjacency = {member: sorted(edges.items())
                        for member, edges in adjacency.items()}
    for source in sorted(members):
        tree = first_hop_spf(source, sorted_adjacency)
        dists[source] = {n: tree[n][0] for n in sorted(tree)}
        hops[source] = {n: hop for n, (_, hop) in tree.items()
                        if hop is not None}
    return dists, hops


#: One vN FIB row after the prefix: (action, next hop, egress IPv4,
#: metric, origin).
_VnRow = Tuple[VnAction, Optional[str], Optional[IPv4Address], float, str]
_Sessions = Dict[Tuple[int, int], List[Tuple[str, str, float]]]


def _layered_local_row(member: str, prefix: Prefix, asn: int,
                       by_owner_domain: Dict[Tuple[Prefix, int],
                                             List[OwnerEntry]],
                       dist: Dict[str, float], hops: Dict[str, str]
                       ) -> Optional[_VnRow]:
    entries = by_owner_domain.get((prefix, asn), [])
    best: Optional[Tuple[float, str, OwnerEntry]] = None
    for entry in sorted(entries, key=lambda e: e.owner):
        if entry.owner == member:
            total = entry.advertised_cost
        elif entry.owner in dist:
            total = dist[entry.owner] + entry.advertised_cost
        else:
            continue
        if best is None or (total, entry.owner) < best[:2]:
            best = (total, entry.owner, entry)
    if best is None:
        return None
    total, owner, entry = best
    if owner == member:
        return (entry.action, None, entry.egress_ipv4, total, entry.origin)
    return (VnAction.FORWARD, hops[owner], None, total, entry.origin)


def _layered_transit_row(member: str, asn: int, next_asn: int,
                         sessions: _Sessions, dist: Dict[str, float],
                         hops: Dict[str, str]) -> Optional[_VnRow]:
    key = (min(asn, next_asn), max(asn, next_asn))
    borders = sessions.get(key, [])
    if asn > next_asn:
        borders = [(remote, local, cost) for local, remote, cost in borders]
    best: Optional[Tuple[float, str, str]] = None
    for local, remote, tunnel_cost in sorted(borders):
        if local == member:
            candidate = (tunnel_cost, local, remote)
        elif local in dist:
            candidate = (dist[local] + tunnel_cost, local, remote)
        else:
            continue
        if best is None or candidate < best:
            best = candidate
    if best is None:
        return None
    cost, local, remote = best
    next_hop = remote if local == member else hops[local]
    return (VnAction.FORWARD, next_hop, None, cost, "bgpvn")


def reference_layered_vn_fibs(deployment: VnDeployment
                              ) -> Dict[str, List[VnFibEntry]]:
    """Every member's layered BGPvN FIB entries, derived from
    ``deployment.tunnels`` (not the members' neighbour sets): intra
    tunnels make one SPF sweep per adopting domain, inter-domain tunnels
    the BGPvN sessions, a fresh :class:`BgpVnSolver` picks each
    domain's routes, and each row is chosen on its own — a prefix the
    member's domain originates by the first minimum of ``(distance +
    advertised cost, owner)`` over that domain's owners, any other
    prefix by the cheapest ``(cost, local border, remote border)``
    towards the next AS on the route."""
    states = deployment.states
    network = deployment.network
    owner_entries = _reference_owner_entries(deployment)
    domain_of = {rid: network.node(rid).domain_id for rid in states}
    members_by_domain: Dict[int, Set[str]] = {}
    for rid, asn in domain_of.items():
        members_by_domain.setdefault(asn, set()).add(rid)
    intra_adj: Dict[int, Dict[str, Dict[str, float]]] = {
        asn: {m: {} for m in members}
        for asn, members in members_by_domain.items()}
    sessions: _Sessions = {}
    for tunnel in deployment.tunnels:
        if tunnel.a not in states or tunnel.b not in states:
            continue
        asn_a, asn_b = domain_of[tunnel.a], domain_of[tunnel.b]
        if asn_a == asn_b:
            adj = intra_adj[asn_a]
            adj[tunnel.a][tunnel.b] = min(
                tunnel.cost, adj[tunnel.a].get(tunnel.b, float("inf")))
            adj[tunnel.b][tunnel.a] = adj[tunnel.a][tunnel.b]
        else:
            key = (min(asn_a, asn_b), max(asn_a, asn_b))
            local, remote = ((tunnel.a, tunnel.b) if asn_a <= asn_b
                             else (tunnel.b, tunnel.a))
            sessions.setdefault(key, []).append((local, remote, tunnel.cost))
    dist: Dict[str, Dict[str, float]] = {}
    hops: Dict[str, Dict[str, str]] = {}
    for asn, members in members_by_domain.items():
        dists, first_hops = _layered_intra_spf(members, intra_adj[asn])
        dist.update(dists)
        hops.update(first_hops)
    adjacency: Dict[int, Set[int]] = {asn: set() for asn in members_by_domain}
    for a, b in sessions:
        adjacency[a].add(b)
        adjacency[b].add(a)
    originations: Dict[int, List[BgpVnRoute]] = {
        asn: [] for asn in members_by_domain}
    by_owner_domain: Dict[Tuple[Prefix, int], List[OwnerEntry]] = {}
    for entry in owner_entries:
        asn = domain_of.get(entry.owner)
        if asn is None:
            continue
        originations[asn].append(BgpVnRoute(
            prefix=entry.prefix, as_path=(asn,),
            metric=entry.advertised_cost, entry=entry))
        by_owner_domain.setdefault((entry.prefix, asn), []).append(entry)
    solver = BgpVnSolver(adjacency, originations)
    solver.converge()
    fibs: Dict[str, List[VnFibEntry]] = {}
    for asn in sorted(members_by_domain):
        routes = solver.routes_of(asn)
        for member in sorted(members_by_domain[asn]):
            fib = VnFib()
            for prefix, route in sorted(routes.items(),
                                        key=lambda kv: str(kv[0])):
                if route.origin_asn == asn:
                    row = _layered_local_row(member, prefix, asn,
                                             by_owner_domain,
                                             dist.get(member, {}),
                                             hops.get(member, {}))
                else:
                    row = _layered_transit_row(member, asn, route.as_path[1],
                                               sessions, dist.get(member, {}),
                                               hops.get(member, {}))
                if row is not None:
                    action, next_hop, egress_ipv4, metric, origin = row
                    fib.write(prefix, action, next_hop, egress_ipv4, metric,
                              origin)
            fibs[member] = vn_fib_entries(fib)
    return fibs


def forwarding_state(network: Network, deployment: VnDeployment
                     ) -> Tuple[Dict[str, List[FibRow]],
                                Dict[str, List[VnFibEntry]]]:
    """Every node's ``Fib.snapshot()`` and every member's vN FIB entries:
    the bytes an undone fault, or a rebuild with nothing to do, must
    leave as they were."""
    return ({node_id: node.fib4.snapshot()
             for node_id, node in network.nodes.items()},
            {member: vn_fib_entries(state.fib)
             for member, state in deployment.states.items()})


@contextmanager
def checked_vn_rebuilds() -> Iterator[Counter]:
    """Assert every member's vN FIB equals its reference after every
    ``VnDeployment.rebuild`` inside the block: :func:`reference_vn_fibs`
    under the flat routing, :func:`reference_layered_vn_fibs` under the
    layered one.  Yields the running counts of rebuilds and members
    checked."""
    rebuild = VnDeployment.rebuild
    checked: Counter = Counter()

    def rebuild_and_check(self: VnDeployment) -> None:
        rebuild(self)
        expected = (reference_vn_fibs(self)
                    if isinstance(self.routing, VnRouting)
                    else reference_layered_vn_fibs(self))
        for member, state in self.states.items():
            assert vn_fib_entries(state.fib) == expected[member], member
        checked["rebuilds"] += 1
        checked["members"] += len(self.states)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VnDeployment, "rebuild", rebuild_and_check)
        yield checked


@contextmanager
def per_message_bgp() -> Iterator[None]:
    """Hold every ``BgpProtocol`` in the block on its per-message send
    path: the scheduler reports a no-op perturbation whenever none is
    set, which is the state ``_send`` falls back on.  Loss and jitter
    themselves are untouched (``schedule_message`` reads the real one)."""
    no_op = MessagePerturbation()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            EventScheduler, "message_perturbation",
            property(lambda self: self._perturbation or no_op))
        yield


# -- the hop-by-hop walk ------------------------------------------------------
def reference_walk(engine: ForwardingEngine, packet: Packet, node: Node,
                   trace: ForwardingTrace, strict: bool,
                   fork_queue: Optional[Deque]) -> None:
    """The walk one step per node, as ``ForwardingEngine._walk`` was
    before the IPv4 segment loop; vN steps and local acceptance are the
    engine's own."""
    steps = 0
    while True:
        if not node.up:
            trace.outcome = Outcome.FAULT_DROPPED
            trace.drop_reason = f"node {node.node_id} is down"
            trace.record(node, FAULT_ACTION, trace.drop_reason)
            if strict:
                raise FaultDropError(trace.drop_reason)
            return
        steps += 1
        if steps > engine.max_steps:
            trace.outcome = Outcome.LOOP
            trace.drop_reason = f"exceeded {engine.max_steps} steps"
            if strict:
                raise ForwardingLoopError(trace.drop_reason)
            return
        outer = packet.outer
        if isinstance(outer, IPv4Header):
            next_node = reference_ipv4_step(engine, node, packet, outer, trace,
                                            strict)
        else:
            next_node = engine._vn_step(node, packet, outer, trace, strict,
                                        fork_queue)
        if next_node is None:
            return
        node = next_node


def reference_ipv4_step(engine: ForwardingEngine, node: Node, packet: Packet,
                        outer: IPv4Header, trace: ForwardingTrace,
                        strict: bool) -> Optional[Node]:
    """One IPv4 hop: a new header with the TTL decremented, one
    ``record``, and the next node fetched by id."""
    if node.accepts_ipv4(outer.dst):
        return engine._accept_locally(node, packet, trace)
    entry = node.fib4.lookup(outer.dst)
    if entry is None or entry.next_hop is None:
        trace.outcome = Outcome.NO_ROUTE
        trace.drop_reason = f"no IPv4 route at {node.node_id} for {outer.dst}"
        trace.record(node, "drop", trace.drop_reason)
        if strict:
            raise NoRouteError(node.node_id, outer.dst)
        return None
    if outer.ttl <= 1:
        trace.outcome = Outcome.TTL_EXPIRED
        trace.drop_reason = f"IPv4 TTL expired at {node.node_id}"
        trace.record(node, "drop", trace.drop_reason)
        if strict:
            raise TTLExpiredError(node.node_id)
        return None
    link = engine.network.link_between(node.node_id, entry.next_hop)
    if link is None:
        trace.outcome = Outcome.NO_ROUTE
        trace.drop_reason = f"next hop {entry.next_hop} unreachable from {node.node_id}"
        trace.record(node, "drop", trace.drop_reason)
        if strict:
            raise NoRouteError(node.node_id, outer.dst)
        return None
    if not link.up:
        trace.outcome = Outcome.FAULT_DROPPED
        trace.drop_reason = (
            f"link {node.node_id}<->{entry.next_hop} is down")
        trace.record(node, FAULT_ACTION, trace.drop_reason)
        if strict:
            raise FaultDropError(trace.drop_reason)
        return None
    packet.replace_outer(outer._replace(ttl=outer.ttl - 1))
    trace.physical_hops += 1
    trace.latency += link.delay
    trace.record(node, "ipv4-forward", entry, depth=packet.depth)
    return engine.network.node(entry.next_hop)


# -- the flow fast path ------------------------------------------------------
@contextmanager
def slow_path_held() -> Iterator[None]:
    """Every ``FlowFastPath`` in the block finds nothing and stores
    nothing: each packet walks hop by hop, and the fast path's own
    counters stay at zero."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowFastPath, "lookup", lambda self, key: None)
        patch.setattr(FlowFastPath, "store", lambda self, key, trace: None)
        yield


# -- paranoid caches ----------------------------------------------------------
@contextmanager
def _quiet(obj: object) -> Iterator[None]:
    """Re-derive without touching *obj*'s metric counters."""
    obs, obj.obs = obj.obs, NULL_OBS  # type: ignore[attr-defined]
    try:
        yield
    finally:
        obj.obs = obs  # type: ignore[attr-defined]


@pytest.fixture
def paranoid_caches(monkeypatch: pytest.MonkeyPatch) -> Counter:
    """Re-derive on every cache hit and assert the cache said the same.

    Covers each memo in ``src/``: ``TopologyMemo.get`` (one patch for
    the path cache, the egress cache and the delay oracle, counted
    under the memo's class name), the IGP install gate (every router
    ``install_routes`` skips is re-derived and compared with its FIB:
    ``igp_install``) and refresh gate (every skipped
    ``LinkStateRouting.refresh`` is re-scanned and must find no
    differing LSA: ``igp_refresh``), ``VnRouting.compute`` (a fresh
    routing with no memo writes into fresh FIBs; trees a compute did
    not sweep in full must equal its sweep: ``vn_routing``, of which
    ``vn_grown`` grew over added tunnels, and after a compute that left
    any (member, prefix) row unvisited every member's FIB must equal
    its fresh one: ``vn_fib`` counts the unvisited rows so checked,
    ``vn_rows`` every row of every compute), ``VnAddressPlan.resolve``
    (every reused ``(host, address)`` is re-derived with
    ``_require_host`` + ``host_address``: ``send_hosts``) and the flow
    fast path (a copy of every packet it answers is walked hop by hop by
    :func:`reference_walk`).  Returns the count of verified hits per
    mechanism, so a test can show it was not vacuous.
    """
    verified: Counter = Counter()

    forward = ForwardingEngine.forward

    def paranoid_forward(self, packet, start, strict=False):
        hits = self.fastpath.hits
        sent = packet.copy()
        replayed = forward(self, packet, start, strict)
        if self.fastpath.hits != hits:
            walked = ForwardingTrace()
            reference_walk(self, sent, self.network.node(start), walked,
                           False, None)
            assert walked.to_dict() == replayed.to_dict()
            verified["fastpath"] += 1
        return replayed

    get = TopologyMemo.get

    def paranoid_get(self, key):
        hits = self.hits
        cached = get(self, key)
        if self.hits != hits:
            with _quiet(self), _quiet(self.network):
                assert cached == self.compute(key)
            verified[type(self).__name__] += 1
        return cached

    igp_install = IgpProtocol.install_routes

    def paranoid_igp_install(self):
        skipped = [router_id for router_id in self.domain.routers
                   if self._installed_gen.get(router_id)
                   == self._route_gen[router_id]]
        igp_install(self)
        for router_id in skipped:
            with _quiet(self):
                derived = _igp_rows(self._routes(router_id))
            fib = self.network.node(router_id).fib4
            assert fib.snapshot(RouteSource.IGP) == derived, router_id
        verified["igp_install"] += len(skipped)

    igp_refresh = LinkStateRouting.refresh

    def paranoid_igp_refresh(self):
        skipped = self.refreshes_skipped
        igp_refresh(self)
        if self.refreshes_skipped != skipped:
            for router_id in self.domain.routers:
                stored = self._lsdb[router_id][router_id]
                fresh = self._build_lsa(router_id)
                assert stored.content_key() == fresh.content_key(), router_id
            verified["igp_refresh"] += 1

    vn_compute = VnRouting.compute

    def paranoid_vn_compute(self, states, owner_entries):
        trees, adjacency = self._dist, self._adjacency
        visited = self.rows_visited
        vn_compute(self, states, owner_entries)
        # The full sweep builds new maps; a compute that kept them grew
        # its trees in place or reused them.
        spf_reused = self._dist is trees
        rows = len(states) * len({entry.prefix for entry in owner_entries})
        unvisited = rows - (self.rows_visited - visited)
        assert unvisited >= 0
        verified["vn_rows"] += rows
        if not (spf_reused or unvisited):
            return
        # The memo forgotten: a fresh routing writes fresh FIBs.
        fresh = VnRouting(self.network, self.version)
        fresh.obs = NULL_OBS
        fresh_states = {m: dataclasses.replace(state, fib=VnFib())
                        for m, state in states.items()}
        vn_compute(fresh, fresh_states, owner_entries)
        if spf_reused:
            assert (self._dist, self._first_hop) == (fresh._dist,
                                                     fresh._first_hop)
            verified["vn_routing"] += 1
            verified["vn_grown"] += self._adjacency != adjacency
        if unvisited:
            for member in sorted(states):
                assert (vn_fib_entries(states[member].fib)
                        == vn_fib_entries(fresh_states[member].fib)), member
        verified["vn_fib"] += unvisited

    resolve = VnAddressPlan.resolve

    def paranoid_resolve(self, host_id):
        entry = self._resolved.get(host_id)
        answer = resolve(self, host_id)
        if entry is not None and self._resolved.get(host_id) is entry:
            host = self._require_host(host_id)
            assert answer == (host, self.host_address(host)), host_id
            assert answer[0] is host
            verified["send_hosts"] += 1
        return answer

    monkeypatch.setattr(ForwardingEngine, "forward", paranoid_forward)
    monkeypatch.setattr(TopologyMemo, "get", paranoid_get)
    monkeypatch.setattr(VnAddressPlan, "resolve", paranoid_resolve)
    monkeypatch.setattr(IgpProtocol, "install_routes", paranoid_igp_install)
    monkeypatch.setattr(LinkStateRouting, "refresh", paranoid_igp_refresh)
    monkeypatch.setattr(VnRouting, "compute", paranoid_vn_compute)
    return verified


# -- trace validators ---------------------------------------------------------
def reference_validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """``validate_trace_lines`` before ``hops_at`` and the ``wall_``
    prefilter: every key of every event is looked at."""
    errors: List[str] = []
    expected_seq = 0
    saw_end_at: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(event, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        kind = event.get("kind")
        if not isinstance(kind, str) or not kind:
            errors.append(f"line {lineno}: missing or non-string 'kind'")
        seq = event.get("seq")
        if not isinstance(seq, int):
            errors.append(f"line {lineno}: missing or non-int 'seq'")
        elif seq != expected_seq:
            errors.append(f"line {lineno}: seq {seq} != expected {expected_seq}")
        expected_seq += 1
        if lineno == 1:
            if kind != RUN_START:
                errors.append(f"line 1: first event must be {RUN_START!r}, "
                              f"got {kind!r}")
            elif not isinstance(event.get("context"), dict):
                errors.append("line 1: run.start has no 'context' object")
            schema = event.get("schema")
            if schema is not None and schema not in _KNOWN_SCHEMAS:
                errors.append(f"line 1: unknown trace schema {schema!r}")
        if kind in ("span.start", "span.end"):
            for field in ("span_id", "trace_id"):
                if not isinstance(event.get(field), str):
                    errors.append(f"line {lineno}: {kind} has missing or "
                                  f"non-string {field!r}")
        if saw_end_at is not None:
            errors.append(f"line {lineno}: event after {RUN_END!r} "
                          f"(line {saw_end_at})")
        if kind == RUN_END:
            saw_end_at = lineno
        t = event.get("t")
        if t is not None and not isinstance(t, (int, float)):
            errors.append(f"line {lineno}: 't' is not a number")
        for key, value in event.items():
            if key.startswith(WALL_PREFIX) and not isinstance(value, (int, float)):
                errors.append(f"line {lineno}: wall field {key!r} is not a number")
    if expected_seq == 0:
        errors.append("trace is empty")
    return errors


def reference_validate_span_lines(lines: Iterable[str]) -> List[str]:
    """``validate_span_lines`` parsing every line: what
    ``validate_spans`` must return for a file of these lines."""
    import json

    def _events() -> Iterable[Dict[str, object]]:
        for line in lines:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                yield event

    return validate_span_events(_events())
