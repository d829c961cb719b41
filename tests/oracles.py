"""Reference implementations the equivalence suites hold ``src/`` to.

``src/`` carries one implementation per mechanism; what it is compared
against lives here, as test code:

* :func:`early_exit_dijkstra` — the per-destination search
  :class:`~repro.perf.cache.PathCache` answers from a memoized tree;
* :func:`bellman_ford_first_hops` — distances and the smallest-first-hop
  tie-break ``first_hop_spf`` gives every IGP and vN FIB;
* :class:`FibOracle` — a FIB that keeps only the live offers and
  recomputes ``min((admin_distance, metric))`` on every read, which
  :class:`~repro.net.node.Fib`'s stored winners must equal;
* :func:`seed_bgp_fib` — the BGP rows of every FIB recomputed one
  (prefix, router) at a time from the Loc-RIBs, which grouped and
  incremental installation must reproduce; :func:`checked_bgp_installs`
  asserts it after every ``install_routes``;
* :func:`paranoid_caches` — a fixture under which every cache hit, and
  every flow the fast path replays, is re-derived from scratch and
  compared, so a run that finishes has given exactly the answers an
  uncached run would have;
* :func:`slow_path_held` and :func:`per_message_bgp` — hold the levers
  ``src/`` selects from observable state (``FlowFastPath.pause()``, an
  active ``MessagePerturbation``) for a whole run, to compare it with a
  run that used the fast path / MRAI batching.
"""

from __future__ import annotations

import heapq
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

from repro.bgp.protocol import BgpProtocol
from repro.net.fastpath import FlowFastPath
from repro.net.forwarding import ForwardingEngine, ForwardingTrace
from repro.net.link import LinkScope
from repro.net.network import Network
from repro.net.address import Address, Prefix
from repro.net.node import FibEntry, RouteSource
from repro.net.simulator import EventScheduler, MessagePerturbation
from repro.obs import NULL_OBS
from repro.perf.cache import TopologyMemo
from repro.routing.linkstate import LinkStateRouting
from repro.vnbone.bgpvn import LayeredVnRouting
from repro.vnbone.routing import VnRouting

#: One ``Fib.snapshot()`` row: (prefix, source, next hop, metric).
FibRow = Tuple[str, str, str, float]


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

    Only live routers are compared.  A crashed router's IGP view
    empties at the first ``refresh()`` after the crash, which moves no
    topology version, so the incremental branch leaves it the BGP rows
    of its last rebuild until the next version change; while down it
    neither forwards nor accepts packets, so those rows cannot be
    observed.
    """
    install_routes = BgpProtocol.install_routes
    checked: List[SeedFib] = []

    def install_and_check(self: BgpProtocol) -> None:
        install_routes(self)
        expected = seed_bgp_fib(self.network, self)
        installed = installed_bgp_rows(self.network)
        for node_id, node in self.network.nodes.items():
            if node.up:
                assert installed[node_id] == expected.rows[node_id], node_id
        checked.append(expected)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BgpProtocol, "install_routes", install_and_check)
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


# -- the flow fast path ------------------------------------------------------
@contextmanager
def slow_path_held() -> Iterator[None]:
    """Every ``FlowFastPath`` built in the block starts ``pause()``d and
    is never resumed: each packet walks hop by hop."""
    init = FlowFastPath.__init__

    def init_paused(self: FlowFastPath, network: Network) -> None:
        init(self, network)
        self.pause()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowFastPath, "__init__", init_paused)
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
    under the memo's class name), ``LinkStateRouting._spf``,
    ``VnRouting.compute``, the ``LayeredVnRouting`` intra cache and the
    flow fast path (a copy of every packet it answers is walked hop by
    hop).  Returns the count of verified hits per mechanism, so a test
    can show it was not vacuous.
    """
    verified: Counter = Counter()

    forward = ForwardingEngine.forward

    def paranoid_forward(self, packet, start, strict=False):
        hits = self.fastpath.hits
        sent = packet.copy()
        replayed = forward(self, packet, start, strict)
        if self.fastpath.hits != hits:
            walked = ForwardingTrace()
            self._walk(sent, self.network.node(start), walked, False, None)
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

    spf = LinkStateRouting._spf

    def paranoid_spf(self, router_id):
        before = self._spf_cache.get(router_id)
        result = spf(self, router_id)
        if before is not None and result is before[1]:
            del self._spf_cache[router_id]
            with _quiet(self):
                assert result == spf(self, router_id)
            self._spf_cache[router_id] = before
            verified["linkstate_spf"] += 1
        return result

    vn_compute = VnRouting.compute

    def paranoid_vn_compute(self, states, owner_entries):
        before = self._signature
        vn_compute(self, states, owner_entries)
        if before is not None and self._signature == before:
            dist = {m: dict(d) for m, d in self._dist.items()}
            first_hop = {m: dict(h) for m, h in self._first_hop.items()}
            self._signature = None
            with _quiet(self):
                vn_compute(self, states, owner_entries)
            assert (self._dist, self._first_hop) == (dist, first_hop)
            verified["vn_routing"] += 1

    layered_compute = LayeredVnRouting.compute

    def paranoid_layered_compute(self, states, owner_entries, tunnels):
        before = dict(self._intra_cache)
        layered_compute(self, states, owner_entries, tunnels)
        hits = [asn for asn, entry in self._intra_cache.items()
                if entry is before.get(asn)]
        if hits:
            dist = {m: dict(d) for m, d in self._intra_dist.items()}
            hops = {m: dict(h) for m, h in self._intra_hop.items()}
            self._intra_cache.clear()
            with _quiet(self):
                layered_compute(self, states, owner_entries, tunnels)
            assert (self._intra_dist, self._intra_hop) == (dist, hops)
            verified["layered_intra"] += len(hits)

    monkeypatch.setattr(ForwardingEngine, "forward", paranoid_forward)
    monkeypatch.setattr(TopologyMemo, "get", paranoid_get)
    monkeypatch.setattr(LinkStateRouting, "_spf", paranoid_spf)
    monkeypatch.setattr(VnRouting, "compute", paranoid_vn_compute)
    monkeypatch.setattr(LayeredVnRouting, "compute", paranoid_layered_compute)
    return verified
