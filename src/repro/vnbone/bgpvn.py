"""BGPvN: layered inter-domain routing over the vN-Bone (Section 3.3.2).

The paper assumes "the existence of separate intra and inter-domain
IPvN routing protocols", calling the latter BGPvN ("even though BGPvN
need not strictly resemble today's BGP").  The default
:class:`~repro.vnbone.routing.VnRouting` flattens the vN-Bone into one
link-state graph; this module implements the *layered* alternative the
paper describes:

* **intra-domain**: shortest paths over each adopting domain's intra
  tunnels (IGPvN);
* **inter-domain**: a path-vector protocol between adopting domains,
  with sessions along inter-domain tunnels.  Originations are exactly
  the advertisements the paper lists: each domain's native prefix, the
  host routes it serves, and — for advertising-by-proxy — external
  IPv(N-1) destination blocks with the advertiser's distance carried as
  a metric.

Selection order is (AS-path length, metric, origin ASN): path-vector
first, so routing is provably loop-free at the domain level; the metric
realizes Figure 4's "advertise their distance to Z".  The solver is a
deterministic synchronous iteration to fixpoint rather than a
message-driven engine — the adopters cooperate (the paper's design
space here is unconstrained), so there is no policy oscillation to
model.

Select the mode with ``VnDeployment(..., routing_mode="layered")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.errors import ConvergenceError, RoutingError
from repro.net.network import first_hop_spf
from repro.obs import get_obs
from repro.vnbone.routing import (AdjacencySignature, OwnerEntry,
                                  adjacency_signature)
from repro.vnbone.state import VnAction, VnRouterState
from repro.vnbone.topology import VnTunnel

#: One vN FIB row as ``VnFib.write`` takes it after the prefix:
#: (action, next hop, egress IPv4, metric, origin).
VnRow = Tuple[VnAction, Optional[str], Optional[IPv4Address], float, str]


@dataclass(frozen=True)
class BgpVnRoute:
    """One BGPvN route as held by an adopting domain."""

    prefix: Prefix
    as_path: Tuple[int, ...]
    metric: float
    #: The originating domain's entry describing final disposition.
    entry: OwnerEntry

    @property
    def origin_asn(self) -> int:
        return self.as_path[-1]

    def selection_key(self) -> Tuple[int, float, int]:
        return (len(self.as_path), self.metric, self.origin_asn)

    def prepended(self, asn: int) -> "BgpVnRoute":
        return BgpVnRoute(prefix=self.prefix, as_path=(asn,) + self.as_path,
                          metric=self.metric, entry=self.entry)

    def contains(self, asn: int) -> bool:
        return asn in self.as_path


class BgpVnSolver:
    """Synchronous path-vector fixpoint over the vn-domain graph."""

    def __init__(self, adjacency: Dict[int, Set[int]],
                 originations: Dict[int, List[BgpVnRoute]],
                 max_rounds: int = 200) -> None:
        self.adjacency = adjacency
        self.max_rounds = max_rounds
        self.loc_rib: Dict[int, Dict[Prefix, BgpVnRoute]] = {
            asn: {} for asn in adjacency}
        for asn, routes in originations.items():
            for route in routes:
                current = self.loc_rib[asn].get(route.prefix)
                if current is None or route.selection_key() < current.selection_key():
                    self.loc_rib[asn][route.prefix] = route

    def converge(self) -> None:
        for _ in range(self.max_rounds):
            changed = False
            for asn in sorted(self.adjacency):
                for neighbor in sorted(self.adjacency[asn]):
                    for prefix, route in sorted(self.loc_rib[neighbor].items(),
                                                key=lambda kv: str(kv[0])):
                        if route.contains(asn):
                            continue
                        candidate = route.prepended(asn)
                        current = self.loc_rib[asn].get(prefix)
                        if (current is None
                                or candidate.selection_key()
                                < current.selection_key()):
                            self.loc_rib[asn][prefix] = candidate
                            changed = True
            if not changed:
                return
        raise ConvergenceError("BGPvN did not reach a fixpoint")

    def routes_of(self, asn: int) -> Dict[Prefix, BgpVnRoute]:
        return dict(self.loc_rib.get(asn, {}))


class LayeredVnRouting:
    """Intra-domain SPF + BGPvN, installing the same VnFib interface."""

    def __init__(self, network, version: int) -> None:
        self.network = network
        self.version = version
        self.obs = get_obs()
        self._intra_dist: Dict[str, Dict[str, float]] = {}
        self._intra_hop: Dict[str, Dict[str, str]] = {}
        self._solver: Optional[BgpVnSolver] = None
        self._domain_of: Dict[str, int] = {}
        #: asn -> (signature, per-member dists, per-member first hops);
        #: unchanged intra tunnel graphs reuse their SPF sweep verbatim.
        self._intra_cache: Dict[int, Tuple[AdjacencySignature,
                                           Dict[str, Dict[str, float]],
                                           Dict[str, Dict[str, str]]]] = {}

    # -- intra-domain SPF --------------------------------------------------------
    def _intra_spf(self, members: Set[str],
                   adjacency: Dict[str, Dict[str, float]]
                   ) -> Tuple[Dict[str, Dict[str, float]],
                              Dict[str, Dict[str, str]]]:
        dists: Dict[str, Dict[str, float]] = {}
        hops: Dict[str, Dict[str, str]] = {}
        # Edge lists sorted once per sweep, not once per heap pop.
        sorted_adjacency = {member: sorted(edges.items())
                            for member, edges in adjacency.items()}
        for source in sorted(members):
            if self.obs.enabled:
                self.obs.counter("perf.dijkstra_runs").inc()
            tree = first_hop_spf(source, sorted_adjacency)
            dists[source] = {n: tree[n][0] for n in sorted(tree)}
            hops[source] = {n: hop for n, (_, hop) in tree.items()
                            if hop is not None}
        return dists, hops

    # -- the full computation ---------------------------------------------------------
    def compute(self, states: Dict[str, VnRouterState],
                owner_entries: List[OwnerEntry],
                tunnels: List[VnTunnel]) -> None:
        self._domain_of = {rid: self.network.node(rid).domain_id
                           for rid in states}
        members_by_domain: Dict[int, Set[str]] = {}
        for rid, asn in self._domain_of.items():
            members_by_domain.setdefault(asn, set()).add(rid)
        # Split tunnels into intra adjacency and inter-domain sessions.
        intra_adj: Dict[int, Dict[str, Dict[str, float]]] = {
            asn: {m: {} for m in members} for asn, members in
            members_by_domain.items()}
        #: (asn_a, asn_b) -> list of (border_a, border_b, cost)
        sessions: Dict[Tuple[int, int], List[Tuple[str, str, float]]] = {}
        for tunnel in tunnels:
            if tunnel.a not in states or tunnel.b not in states:
                continue
            asn_a, asn_b = self._domain_of[tunnel.a], self._domain_of[tunnel.b]
            if asn_a == asn_b:
                adj = intra_adj[asn_a]
                adj[tunnel.a][tunnel.b] = min(
                    tunnel.cost, adj[tunnel.a].get(tunnel.b, float("inf")))
                adj[tunnel.b][tunnel.a] = adj[tunnel.a][tunnel.b]
            else:
                key = (min(asn_a, asn_b), max(asn_a, asn_b))
                local, remote = ((tunnel.a, tunnel.b) if asn_a <= asn_b
                                 else (tunnel.b, tunnel.a))
                sessions.setdefault(key, []).append((local, remote,
                                                     tunnel.cost))
        self._intra_dist.clear()
        self._intra_hop.clear()
        for asn, members in members_by_domain.items():
            signature = adjacency_signature(intra_adj[asn])
            cached = self._intra_cache.get(asn)
            if cached is not None and cached[0] == signature:
                _, dists, hops = cached
                if self.obs.enabled:
                    self.obs.counter("vnbone.spf_cache_hits").inc()
            else:
                dists, hops = self._intra_spf(members, intra_adj[asn])
                self._intra_cache[asn] = (signature, dists, hops)
            self._intra_dist.update(dists)
            self._intra_hop.update(hops)
        # BGPvN: originations from owner entries, grouped by owner domain.
        adjacency: Dict[int, Set[int]] = {asn: set() for asn in members_by_domain}
        for (a, b) in sessions:
            adjacency[a].add(b)
            adjacency[b].add(a)
        originations: Dict[int, List[BgpVnRoute]] = {
            asn: [] for asn in members_by_domain}
        for entry in owner_entries:
            asn = self._domain_of.get(entry.owner)
            if asn is None:
                continue
            originations[asn].append(BgpVnRoute(
                prefix=entry.prefix, as_path=(asn,),
                metric=entry.advertised_cost, entry=entry))
        self._solver = BgpVnSolver(adjacency, originations)
        self._solver.converge()
        # FIB installation.
        by_owner_domain: Dict[Tuple[Prefix, int], List[OwnerEntry]] = {}
        for entry in owner_entries:
            asn = self._domain_of.get(entry.owner)
            if asn is not None:
                by_owner_domain.setdefault((entry.prefix, asn), []).append(entry)
        for asn in sorted(members_by_domain):
            self._install_domain(asn, members_by_domain[asn], sessions,
                                 by_owner_domain, states)

    def _session_borders(self, asn: int, next_asn: int,
                         sessions) -> List[Tuple[str, str, float]]:
        key = (min(asn, next_asn), max(asn, next_asn))
        triples = sessions.get(key, [])
        if asn <= next_asn:
            return triples
        return [(remote, local, cost) for local, remote, cost in triples]

    def _install_domain(self, asn: int, members: Set[str], sessions,
                        by_owner_domain, states: Dict[str, VnRouterState]) -> None:
        assert self._solver is not None
        routes = self._solver.routes_of(asn)
        for member in sorted(members):
            fib = states[member].fib
            dist = self._intra_dist.get(member, {})
            hops = self._intra_hop.get(member, {})
            kept: List[Prefix] = []
            for prefix, route in sorted(routes.items(), key=lambda kv: str(kv[0])):
                if route.origin_asn == asn:
                    row = self._local_row(member, prefix, asn,
                                          by_owner_domain, dist, hops)
                else:
                    next_asn = route.as_path[1]
                    row = self._transit_row(member, asn, next_asn, sessions,
                                            dist, hops)
                if row is not None:
                    fib.write(prefix, *row)
                    kept.append(prefix)
            fib.retain(kept)

    def _local_row(self, member: str, prefix: Prefix, asn: int,
                   by_owner_domain, dist, hops) -> Optional[VnRow]:
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

    def _transit_row(self, member: str, asn: int, next_asn: int, sessions,
                     dist, hops) -> Optional[VnRow]:
        borders = self._session_borders(asn, next_asn, sessions)
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
        if local == member:
            next_hop = remote  # cross the inter-domain tunnel
        else:
            next_hop = hops[local]  # head for our border first
        return (VnAction.FORWARD, next_hop, None, cost, "bgpvn")

    # -- inspection (interface-compatible subset of VnRouting) ---------------------------
    def reachable_members(self, member: str) -> Set[str]:
        """Members reachable from *member*: its domain plus every domain
        BGPvN has a route through (approximation at domain granularity)."""
        if self._solver is None:
            return set()
        asn = self._domain_of.get(member)
        if asn is None:
            return set()
        reachable_domains = {asn}
        for route in self._solver.routes_of(asn).values():
            reachable_domains.add(route.origin_asn)
        return {rid for rid, domain in self._domain_of.items()
                if domain in reachable_domains}

    def domain_route(self, asn: int, prefix: Prefix) -> Optional[BgpVnRoute]:
        if self._solver is None:
            raise RoutingError("compute() has not run yet")
        return self._solver.routes_of(asn).get(prefix)

    def distance(self, a: str, b: str) -> Optional[float]:
        """Intra-domain distances only; inter-domain is path-vector."""
        return self._intra_dist.get(a, {}).get(b)

    def path(self, a: str, b: str) -> Optional[List[str]]:
        raise RoutingError("layered BGPvN mode does not expose member-level "
                           "paths; use the global-spf routing mode")
