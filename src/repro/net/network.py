"""The network container: nodes, links, domains, and graph utilities.

:class:`Network` is the single source of truth for topology.  Routing
protocols read it; the forwarding engine walks it; metrics use its
ground-truth shortest paths (Dijkstra over live links) to compute
stretch.
"""

from __future__ import annotations

import heapq
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain, Relationship
from repro.net.errors import TopologyError
from repro.net.link import Link, LinkScope
from repro.net.node import FibEntry, Host, Node, NodeKind, RouteSource, Router
from repro.obs import get_obs
from repro.perf.cache import PathCache

#: The default route hosts point at their access router.
DEFAULT_ROUTE = Prefix(IPv4Address(0), 0)


def first_hop_spf(source: str,
                  adjacency: Mapping[str, Sequence[Tuple[str, float]]]
                  ) -> Dict[str, Tuple[float, Optional[str]]]:
    """Dijkstra for a control plane: node -> (distance, first hop from
    *source*), in settling order; the source's first hop is ``None``.

    *adjacency* maps a node to its ``(neighbor, cost)`` edges, sorted,
    with positive costs.  Heap entries are ``(distance, node, first
    hop)``, so among equal-cost shortest paths a node keeps the smallest
    first-hop id — the tie-break every link-state FIB and vN FIB
    inherits.  A zero-cost edge would break it: a node could settle
    before its zero-cost predecessor and miss an equal-distance path
    with a smaller first hop.  (The predecessor-tree search below keeps
    the first-found predecessor instead, which is why the two stay
    separate.)
    """
    settled: Dict[str, Tuple[float, Optional[str]]] = {}
    heap: List[Tuple[float, str, Optional[str]]] = [(0.0, source, None)]
    while heap:
        d, u, first = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = (d, first)
        for v, cost in adjacency.get(u, ()):
            if v not in settled:
                heapq.heappush(heap, (d + cost, v, v if first is None else first))
    return settled


def grow_first_hop_spf(source: str, dist: Dict[str, float],
                       first_hop: Dict[str, str],
                       added: Iterable[Tuple[str, str, float]],
                       adjacency: Mapping[str, Sequence[Tuple[str, float]]]
                       ) -> Set[str]:
    """Bring *source*'s :func:`first_hop_spf` result up to date, in
    place, after its graph gained the directed edges *added*; returns
    the nodes whose entry moved.

    *dist* and *first_hop* hold the result as two maps (the source has
    no first hop).  *adjacency* is the grown graph: sorted, undirected
    (each edge listed at both ends), costs positive.  A fresh search
    gives every node the least ``(d(u) + cost, first hop via u)`` over
    its neighbours ``u`` (its shortest-path predecessors settle before
    it; any other neighbour offers more).  Here a node is re-derived
    from that same minimum, with the same float additions, whenever a
    new edge or a neighbour's moved entry may change it — an offer
    below its entry, or the loss of the offer its entry equals — in
    ``(distance, node, first hop)`` heap order, so every entry its
    minimum depends on is final when it is popped.  Taking only offers
    below an entry would not be exact: a neighbour's smaller distance
    can round to the same sum and raise the first hop (edges ``s–a
    0.1, a–u 0.2, u–v 1.0`` plus ``s–u 0.3``: ``v`` keeps ``1.3``, but
    by way of ``u``).
    """
    heap: List[Tuple[float, str, str]] = []
    for u, v, cost in added:
        reach = dist.get(u)
        if reach is None or v == source:
            continue
        offer = (reach + cost, v if u == source else first_hop[u])
        held = dist.get(v)
        if held is None or offer < (held, first_hop[v]):
            heap.append((offer[0], v, offer[1]))
    heapq.heapify(heap)
    done: Set[str] = set()
    moved: Set[str] = set()
    while heap:
        v = heapq.heappop(heap)[1]
        if v in done:
            continue
        done.add(v)
        entry = min((dist[u] + cost, v if u == source else first_hop[u])
                    for u, cost in adjacency[v] if u in dist)
        old = dist.get(v)
        old_first = first_hop.get(v)
        if (old, old_first) == entry:
            continue
        d, first = entry
        dist[v], first_hop[v] = d, first
        moved.add(v)
        for w, cost in adjacency[v]:
            if w == source or w in done:
                continue
            offer = (d + cost, first)
            held = dist.get(w)
            if held is None or offer < (held, first_hop[w]):
                heapq.heappush(heap, (offer[0], w, first))
            elif (old is not None and offer != (held, first_hop[w])
                  and (old + cost, old_first) == (held, first_hop[w])):
                heapq.heappush(heap, (held, w, first_hop[w]))
    return moved


class Network:
    """A two-level internetwork: router-level graphs inside AS-level domains."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.domains: Dict[int, Domain] = {}
        self._addr_index: Dict[IPv4Address, str] = {}
        self.obs = get_obs()
        #: Monotonic counter bumped by every path-relevant mutation.
        self.topology_version = 0
        self._domain_versions: Dict[int, int] = {}
        #: Moved by every topology bump and by every change of forwarding
        #: state reported through :attr:`_on_forwarding_change`.
        self.forwarding_version = 0
        #: The one state-change hook every link shares, and the one every
        #: node shares (bound methods made once, not one per link or node).
        self._on_link_change: Callable[[Link], None] = self._link_changed
        self._on_forwarding_change: Callable[[], None] = self._forwarding_changed
        #: Memoized shortest-path trees, invalidated by version bumps.
        self.path_cache = PathCache(self)

    # -- topology versioning ----------------------------------------------
    def domain_version(self, asn: int) -> int:
        """Monotonic counter bumped, with :attr:`topology_version`, by
        every mutation that touches AS *asn*'s links or nodes."""
        return self._domain_versions.get(asn, 0)

    def _bump_topology_version(self, *asns: int) -> None:
        self.topology_version += 1
        self.forwarding_version += 1
        versions = self._domain_versions
        for asn in asns:
            versions[asn] = versions.get(asn, 0) + 1

    def _link_changed(self, link: Link) -> None:
        """A link appeared, vanished or flipped: both endpoint domains."""
        nodes = self.nodes
        self._bump_topology_version(nodes[link.a].domain_id,
                                    nodes[link.b].domain_id)

    def _forwarding_changed(self) -> None:
        self.forwarding_version += 1

    # -- construction ---------------------------------------------------
    def add_domain(self, domain: Domain) -> Domain:
        if domain.asn in self.domains:
            raise TopologyError(f"duplicate domain AS{domain.asn}")
        self.domains[domain.asn] = domain
        return domain

    def domain_of(self, node_id: str) -> Domain:
        node = self.node(node_id)
        return self.domains[node.domain_id]

    def add_router(self, node_id: str, asn: int, is_border: bool = False,
                   ipv4: Optional[IPv4Address] = None) -> Router:
        domain = self._require_domain(asn)
        address = ipv4 if ipv4 is not None else domain.allocate_ipv4()
        router = Router(node_id=node_id, ipv4=address, domain_id=asn, is_border=is_border)
        self._register(router)
        domain.routers.add(node_id)
        if is_border:
            domain.border_routers.add(node_id)
        return router

    def add_host(self, node_id: str, asn: int, access_router: str,
                 ipv4: Optional[IPv4Address] = None, link_cost: float = 1.0) -> Host:
        domain = self._require_domain(asn)
        access = self.node(access_router)
        if access.domain_id != asn:
            raise TopologyError(
                f"host {node_id} in AS{asn} cannot attach to {access_router} in AS{access.domain_id}")
        address = ipv4 if ipv4 is not None else domain.allocate_ipv4()
        host = Host(node_id=node_id, ipv4=address, domain_id=asn,
                    kind=NodeKind.HOST, access_router=access_router)
        self._register(host)
        domain.hosts.add(node_id)
        self.add_link(node_id, access_router, cost=link_cost)
        # Hosts send everything to their access router.
        host.fib4.install(FibEntry(prefix=DEFAULT_ROUTE, next_hop=access_router,
                                   source=RouteSource.STATIC))
        # The access router reaches the host over the connected link.
        access.fib4.install(FibEntry(prefix=Prefix.host(host.ipv4), next_hop=node_id,
                                     source=RouteSource.CONNECTED))
        return host

    def _require_domain(self, asn: int) -> Domain:
        if asn not in self.domains:
            raise TopologyError(f"unknown domain AS{asn}; add_domain first")
        return self.domains[asn]

    def _register(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node.node_id!r}")
        if node.ipv4 in self._addr_index:
            raise TopologyError(
                f"address {node.ipv4} already assigned to {self._addr_index[node.ipv4]!r}")
        self.nodes[node.node_id] = node
        self._addr_index[node.ipv4] = node.node_id
        node._on_change = node.fib4._on_change = self._on_forwarding_change  # noqa: SLF001

    def add_link(self, a: str, b: str, cost: float = 1.0, delay: float = 1.0) -> Link:
        """Connect two nodes.  Scope is derived from the endpoint domains."""
        node_a, node_b = self.node(a), self.node(b)
        scope = (LinkScope.INTRA_DOMAIN if node_a.domain_id == node_b.domain_id
                 else LinkScope.INTER_DOMAIN)
        link = Link(a=a, b=b, cost=cost, delay=delay, scope=scope)
        key = link.endpoints()
        if key in self.links:
            raise TopologyError(f"parallel link between {a!r} and {b!r}")
        if scope is LinkScope.INTER_DOMAIN:
            for node in (node_a, node_b):
                if node.is_host:
                    raise TopologyError(f"host {node.node_id} cannot have inter-domain links")
                if not getattr(node, "is_border", False):
                    raise TopologyError(
                        f"inter-domain link endpoint {node.node_id!r} must be a border router")
        self.links[key] = link
        node_a.links.append(link)
        node_b.links.append(link)
        link._on_state_change = self._on_link_change  # noqa: SLF001 - network owns its links
        self._link_changed(link)
        return link

    def connect_domains(self, asn_a: int, asn_b: int, border_a: str, border_b: str,
                        rel_a_to_b: Relationship, cost: float = 1.0,
                        delay: float = 1.0) -> Link:
        """Create an inter-domain link and record the business relationship.

        ``rel_a_to_b`` is what ``asn_b`` *is to* ``asn_a`` (e.g.
        ``Relationship.PROVIDER`` means b is a's provider).
        """
        link = self.add_link(border_a, border_b, cost=cost, delay=delay)
        self._require_domain(asn_a).set_relationship(asn_b, rel_a_to_b)
        self._require_domain(asn_b).set_relationship(asn_a, rel_a_to_b.reverse())
        return link

    # -- queries ----------------------------------------------------------
    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def node_by_ipv4(self, address: IPv4Address) -> Optional[Node]:
        node_id = self._addr_index.get(address)
        return self.nodes[node_id] if node_id is not None else None

    def link_between(self, a: str, b: str) -> Optional[Link]:
        key = (a, b) if a <= b else (b, a)
        return self.links.get(key)

    def neighbors(self, node_id: str, include_down: bool = False,
                  scope: Optional[LinkScope] = None) -> List[Tuple[str, Link]]:
        """(neighbor_id, link) pairs for live links at *node_id*."""
        node = self.node(node_id)
        result = []
        for link in node.links:
            if not include_down and not link.up:
                continue
            if scope is not None and link.scope is not scope:
                continue
            result.append((link.other(node_id), link))
        return result

    def routers(self, asn: Optional[int] = None) -> List[Router]:
        nodes: Iterable[Node]
        if asn is None:
            nodes = self.nodes.values()
        else:
            nodes = (self.nodes[nid] for nid in sorted(self._require_domain(asn).routers))
        return [n for n in nodes if isinstance(n, Router)]

    def hosts(self, asn: Optional[int] = None) -> List[Host]:
        nodes: Iterable[Node]
        if asn is None:
            nodes = self.nodes.values()
        else:
            nodes = (self.nodes[nid] for nid in sorted(self._require_domain(asn).hosts))
        return [n for n in nodes if isinstance(n, Host)]

    # -- ground-truth shortest paths ---------------------------------------
    def shortest_path(self, src: str, dst: str,
                      intra_domain_only: bool = False) -> Optional[Tuple[float, List[str]]]:
        """Dijkstra over live links; returns (cost, node path) or ``None``.

        With ``intra_domain_only`` the search never crosses an
        inter-domain link (used by IGPs and intra-domain metrics).

        The answer comes from the :class:`~repro.perf.cache.PathCache`'s
        memoized shortest-path tree rooted at *src*.
        """
        if src == dst:
            return 0.0, [src]
        self.node(src), self.node(dst)
        return self.path_cache.shortest_path(src, dst, intra_domain_only)

    def shortest_path_tree(self, src: str, intra_domain_only: bool = False,
                           domain: Optional[int] = None) -> Dict[str, Tuple[float, Optional[str]]]:
        """Full Dijkstra from *src*: node -> (distance, predecessor).

        ``domain`` additionally restricts the traversal to one AS's nodes
        (used by link-state SPF).  Served from the
        :class:`~repro.perf.cache.PathCache`; callers must treat the
        returned tree as read-only.
        """
        return self.path_cache.tree(src, intra_domain_only, domain)

    def _compute_shortest_path_tree(
            self, src: str, intra_domain_only: bool = False,
            domain: Optional[int] = None
    ) -> Dict[str, Tuple[float, Optional[str]]]:
        """The raw full Dijkstra the :class:`PathCache` runs on a miss."""
        if self.obs.enabled:
            self.obs.counter("perf.dijkstra_runs").inc()
        allowed: Optional[Set[str]] = None
        if domain is not None:
            dom = self._require_domain(domain)
            allowed = dom.routers | dom.hosts
        dist: Dict[str, Tuple[float, Optional[str]]] = {src: (0.0, None)}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        settled: Dict[str, float] = {}
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            for v, link in self.neighbors(u):
                if intra_domain_only and link.scope is LinkScope.INTER_DOMAIN:
                    continue
                if allowed is not None and v not in allowed:
                    continue
                nd = d + link.cost
                if v not in dist or nd < dist[v][0]:
                    dist[v] = (nd, u)
                    heap_entry = (nd, v)
                    heapq.heappush(heap, heap_entry)
        return {node: info for node, info in dist.items() if node in settled}

    # -- host mobility ----------------------------------------------------------
    def move_host(self, host_id: str, new_asn: int,
                  new_access_router: str) -> Host:
        """Re-home a host: detach it and attach it under a new provider.

        The host receives a fresh IPv4 address from the new domain's
        block (provider-assigned addressing — this is exactly why plain
        IPv(N-1) sessions break on mobility).  Control planes must be
        reconverged afterwards.
        """
        host = self.node(host_id)
        if not isinstance(host, Host):
            raise TopologyError(f"{host_id!r} is not a host")
        new_domain = self._require_domain(new_asn)
        new_access = self.node(new_access_router)
        if new_access.domain_id != new_asn or not new_access.is_router:
            raise TopologyError(
                f"{new_access_router!r} is not a router of AS{new_asn}")
        old_access = self.node(host.access_router)
        old_link = self.link_between(host_id, host.access_router)
        if old_link is not None:
            del self.links[old_link.endpoints()]
            old_access.links.remove(old_link)
            host.links.remove(old_link)
            old_link._on_state_change = None  # noqa: SLF001 - link detached
            self._link_changed(old_link)  # the old domain, before re-homing
        old_access.fib4.withdraw(Prefix.host(host.ipv4), RouteSource.CONNECTED)
        host.fib4.withdraw(DEFAULT_ROUTE, RouteSource.STATIC)
        self.domains[host.domain_id].hosts.discard(host_id)
        del self._addr_index[host.ipv4]
        old_ipv4 = host.ipv4
        host.ipv4 = new_domain.allocate_ipv4()
        host._local_ipv4.discard(old_ipv4)  # noqa: SLF001 - re-homing owns this
        host._local_ipv4.add(host.ipv4)  # noqa: SLF001
        host.domain_id = new_asn
        host.access_router = new_access_router
        self._addr_index[host.ipv4] = host_id
        new_domain.hosts.add(host_id)
        self.add_link(host_id, new_access_router)
        host.fib4.install(FibEntry(prefix=DEFAULT_ROUTE,
                                   next_hop=new_access_router,
                                   source=RouteSource.STATIC))
        new_access.fib4.install(FibEntry(prefix=Prefix.host(host.ipv4),
                                         next_hop=host_id,
                                         source=RouteSource.CONNECTED))
        return host

    # -- failure injection -----------------------------------------------------
    def crash_node(self, node_id: str) -> List[Link]:
        """Crash a node outright: mark it down and fail its live links.

        The control planes observe the adjacency loss; the node itself
        also stops forwarding and accepting packets, and in-flight
        control-plane messages addressed to it are lost.  Returns the
        links failed, for exact restoration.
        """
        node = self.node(node_id)
        node.up = False
        self._bump_topology_version(node.domain_id)
        failed = []
        for link in node.links:
            if link.up:
                link.fail()
                failed.append(link)
        return failed

    def recover_node(self, node_id: str,
                     links: Optional[Iterable[Link]] = None) -> List[Link]:
        """Recover a crashed node and restore its links.

        With *links* (as returned by :meth:`crash_node`) only those are
        restored; otherwise all of the node's links.  A link whose far
        endpoint is itself still crashed stays down.  Returns the links
        actually restored.
        """
        node = self.node(node_id)
        node.up = True
        self._bump_topology_version(node.domain_id)
        candidates = node.links if links is None else list(links)
        restored = []
        for link in candidates:
            if link.up:
                continue
            if not self.node(link.other(node_id)).up:
                continue  # far end still crashed; its recovery restores it
            link.restore()
            restored.append(link)
        return restored

    # -- stats --------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Topology summary used by example scripts and logging."""
        return {
            "domains": len(self.domains),
            "routers": sum(1 for n in self.nodes.values() if n.is_router),
            "hosts": sum(1 for n in self.nodes.values() if n.is_host),
            "links": len(self.links),
            "inter_domain_links": sum(
                1 for l in self.links.values() if l.scope is LinkScope.INTER_DOMAIN),
        }
