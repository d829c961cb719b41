"""Delay-weighted shortest paths: the measurement ground truth.

The forwarding plane routes by *cost* (longest-prefix match over FIBs
that IGP/BGP populated from ``Link.cost``), but a user experiences
*delay*.  The oracle answers "what is the lowest-latency path physics
allows right now?" by running Dijkstra over ``Link.delay`` on live
links and live nodes — deliberately separate from
:meth:`repro.net.network.Network.shortest_path` and its
:class:`~repro.perf.cache.PathCache`, which weigh ``Link.cost``.

Two questions over one search, both memoized in a
:class:`~repro.perf.cache.TopologyMemo` (dropped whenever
``Network.topology_version`` moves — link/node state flips during fault
epochs):

* ``delay(src, dst)`` reads the full per-source :func:`delay_tree`;
* ``best_replica(src, replicas)`` runs :func:`nearest_replica`, the same
  Dijkstra stopped at the nearest live replica.  Until it stops it pops,
  relaxes and sums exactly what the full tree does, in the same order,
  so the delay it returns has the tree's float bits.
"""

from __future__ import annotations

import heapq
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.net.network import Network
from repro.perf.cache import TopologyMemo

#: The nearest live replica and its one-way delay, or ``None``.
Nearest = Optional[Tuple[str, float]]
#: One memoized nearest-replica question: (vantage, replica set).
NearestKey = Tuple[str, FrozenSet[str]]


def _settle(network: Network, src: str) -> Iterator[Tuple[str, float]]:
    """The one delay Dijkstra: yields each reachable live node with its
    shortest *delay* from *src*, in the order it is settled.

    Live means: the link is up and both endpoints are up (a crashed
    router forwards nothing, so paths through it do not exist for a
    user).  Deterministic for a fixed topology: strict-``<``
    relaxation with ties broken by heap ``(delay, node_id)`` order,
    exactly like the cost Dijkstra in :mod:`repro.net.network`.
    """
    if not network.node(src).up:
        return
    nodes = network.nodes
    dist: Dict[str, float] = {src: 0.0}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        yield u, d
        for link in nodes[u].links:
            if not link.up:
                continue
            v = link.b if link.a == u else link.a
            if not nodes[v].up:
                continue
            nd = d + link.delay
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def delay_tree(network: Network, src: str) -> Dict[str, float]:
    """Single-source shortest delay to every reachable live node: the
    search run to the end."""
    return dict(_settle(network, src))


def nearest_replica(network: Network, src: str,
                    replicas: FrozenSet[str]) -> Nearest:
    """(replica, one-way delay) of the delay-closest live replica.

    The same search, stopped once the answer is settled: the first
    replica settled fixes the best delay, and settling continues while
    the delay equals it, because a zero-delay link can still settle
    another replica at that delay.  Among equal delays the smallest
    replica id wins, whatever order they settled in.  Until it stops it
    pops, relaxes and sums exactly what :func:`delay_tree` does.
    """
    if not replicas:
        return None
    best: Nearest = None
    for u, d in _settle(network, src):
        if best is not None and d > best[1]:
            break
        if u in replicas and (best is None or u < best[0]):
            best = (u, d)
    return best


class DelayOracle(TopologyMemo[NearestKey, Nearest]):
    """Memoized nearest-replica answers and delay trees, topology-version
    coherent.

    Construct one per scenario (no module-level instances — the memos
    are mutable state) and ask it for delays as faults come and go;
    every answer is dropped the moment ``network.topology_version``
    moves.  The oracle itself is the memo of :func:`nearest_replica`,
    keyed ``(src, frozenset(replicas))``; :attr:`trees` memoizes
    :func:`delay_tree` per source for :meth:`delay`.
    """

    def __init__(self, network: Network) -> None:
        super().__init__(network, self._search,
                         {"hits": "perf.probe.nearest_replica_hits",
                          "misses": "perf.probe.nearest_replica_misses"})
        self.trees: TopologyMemo[str, Dict[str, float]] = TopologyMemo(
            network, self._tree,
            {"hits": "perf.probe.delay_tree_hits",
             "misses": "perf.probe.delay_tree_misses"})

    def _search(self, key: NearestKey) -> Nearest:
        if self.obs.enabled:
            self.obs.counter("measure.nearest_replica_searches").inc()
        return nearest_replica(self.network, *key)

    def _tree(self, src: str) -> Dict[str, float]:
        # The tree memo's own handle: silencing that memo silences this.
        obs = self.trees.obs
        if obs.enabled:
            obs.counter("measure.delay_spf_runs").inc()
        return delay_tree(self.network, src)

    def delay(self, src: str, dst: str) -> Optional[float]:
        """One-way best delay from *src* to *dst*; None if unreachable."""
        return self.trees.get(src).get(dst)

    def best_replica(self, src: str, replicas: Iterable[str]) -> Nearest:
        """(replica, one-way delay) of the delay-closest live replica.

        Ties break to the lexicographically smallest replica id, so the
        answer is deterministic regardless of *replicas* input order.
        """
        return self.get((src, frozenset(replicas)))
