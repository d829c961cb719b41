"""BGPvN: layered inter-domain routing over the vN-Bone (Section 3.3.2).

The paper assumes "the existence of separate intra and inter-domain
IPvN routing protocols", calling the latter BGPvN ("even though BGPvN
need not strictly resemble today's BGP").  The default
:class:`~repro.vnbone.routing.VnRouting` flattens the vN-Bone into one
link-state graph; this module implements the *layered* alternative the
paper describes.  It reads the same input — every member's
``VnRouterState.neighbors`` — through the same ``compute(states,
owner_entries)``:

* **intra-domain**: shortest paths over each adopting domain's intra
  tunnels (IGPvN) — the flat routing's SPF sweep, run over the tunnel
  graph without its inter-domain links.  A prefix the member's own
  domain originates is written by the flat routing's owner rule, over
  that domain's owners only;
* **inter-domain**: a path-vector protocol between adopting domains,
  with sessions along inter-domain tunnels.  Originations are exactly
  the advertisements the paper lists: each domain's native prefix, the
  host routes it serves, and — for advertising-by-proxy — external
  IPv(N-1) destination blocks with the advertiser's distance carried as
  a metric.  Every other prefix is forwarded towards the cheapest
  border of the next domain on its selected AS path.

Selection order is (AS-path length, metric, origin ASN): path-vector
first, so routing is provably loop-free at the domain level; the metric
realizes Figure 4's "advertise their distance to Z".  The solver is a
deterministic synchronous iteration to fixpoint rather than a
message-driven engine — the adopters cooperate (the paper's design
space here is unconstrained), so there is no policy oscillation to
model.  Nothing is memoised: every ``compute`` sweeps and solves anew,
re-selects every row of every member (the owner rows through the flat
routing's cost-bounded scan) and writes each FIB's delta through
``VnFib.write`` / ``retain``, whose walk drops the stale rows — the
flat routing's row delta needs the memo this one does not keep.

Select the mode with ``VnDeployment(..., routing_mode="layered")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import Prefix
from repro.net.errors import ConvergenceError, RoutingError
from repro.net.network import Network
from repro.obs import get_obs
from repro.vnbone.routing import (FirstHops, OwnerEntry, candidate_view,
                                  spf_sweep, tunnel_graph, write_owner_rows)
from repro.vnbone.state import VnAction, VnRouterState

#: (local AS, remote AS) -> (local border, remote border, tunnel cost)
#: of every inter-domain tunnel between them.
Sessions = Dict[Tuple[int, int], List[Tuple[str, str, float]]]


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

    def __init__(self, network: Network, version: int) -> None:
        self.network = network
        self.version = version
        self.obs = get_obs()
        self._dist: Dict[str, Dict[str, float]] = {}
        self._first_hop: FirstHops = {}
        self._solver: Optional[BgpVnSolver] = None

    def compute(self, states: Dict[str, VnRouterState],
                owner_entries: List[OwnerEntry]) -> None:
        """Run the intra-domain SPF sweep and BGPvN, then write every
        member's FIB delta: its own domain's prefixes by the owner rule,
        every other prefix BGPvN routes towards the next domain."""
        domain_of = {rid: self.network.node(rid).domain_id for rid in states}
        # Split the tunnel graph into intra adjacency and sessions.
        intra: Dict[str, Dict[str, float]] = {}
        sessions: Sessions = {}
        for member, edges in tunnel_graph(states).items():
            asn = domain_of[member]
            intra[member] = {}
            for neighbor, cost in edges.items():
                if domain_of[neighbor] == asn:
                    intra[member][neighbor] = cost
                else:
                    sessions.setdefault((asn, domain_of[neighbor]), []).append(
                        (member, neighbor, cost))
        self._dist, self._first_hop = spf_sweep(intra, self.obs)
        # BGPvN: originations from owner entries, grouped by owner domain.
        members_by_domain: Dict[int, List[str]] = {}
        for rid in sorted(states):
            members_by_domain.setdefault(domain_of[rid], []).append(rid)
        adjacency: Dict[int, Set[int]] = {asn: set()
                                          for asn in members_by_domain}
        for asn, other in sessions:
            adjacency[asn].add(other)
        originations: Dict[int, List[BgpVnRoute]] = {
            asn: [] for asn in members_by_domain}
        owned: Dict[int, List[OwnerEntry]] = {
            asn: [] for asn in members_by_domain}
        for entry in owner_entries:
            owner_asn = domain_of.get(entry.owner)
            if owner_asn is None:
                continue
            originations[owner_asn].append(BgpVnRoute(
                prefix=entry.prefix, as_path=(owner_asn,),
                metric=entry.advertised_cost, entry=entry))
            owned[owner_asn].append(entry)
        self._solver = BgpVnSolver(adjacency, originations)
        self._solver.converge()
        for asn in sorted(members_by_domain):
            own_view = candidate_view(owned[asn])
            transit = [(prefix, sessions[(asn, route.as_path[1])])
                       for prefix, route in sorted(
                           self._solver.routes_of(asn).items(),
                           key=lambda kv: str(kv[0]))
                       if route.origin_asn != asn]
            for member in members_by_domain[asn]:
                fib = states[member].fib
                dist, hops = self._dist[member], self._first_hop[member]
                _, kept = write_owner_rows(member, fib, own_view, dist, hops)
                for prefix, borders in transit:
                    best = _border_towards(member, borders, dist)
                    if best is None:
                        continue
                    cost, local, remote = best
                    # Cross the inter-domain tunnel, or head for our border.
                    next_hop = remote if local == member else hops[local]
                    fib.write(prefix, VnAction.FORWARD, next_hop, None, cost,
                              "bgpvn")
                    kept.append(prefix)
                fib.retain(kept)

    def path(self, a: str, b: str) -> Optional[List[str]]:
        raise RoutingError("layered BGPvN mode does not expose member-level "
                           "paths; use the global-spf routing mode")


def _border_towards(member: str, borders: List[Tuple[str, str, float]],
                    dist: Dict[str, float]
                    ) -> Optional[Tuple[float, str, str]]:
    """The cheapest ``(cost, local border, remote border)`` *member*
    reaches over its domain's tunnels, or ``None``."""
    best: Optional[Tuple[float, str, str]] = None
    for local, remote, tunnel_cost in borders:
        if local == member:
            candidate = (tunnel_cost, local, remote)
        elif local in dist:
            candidate = (dist[local] + tunnel_cost, local, remote)
        else:
            continue
        if best is None or candidate < best:
            best = candidate
    return best
