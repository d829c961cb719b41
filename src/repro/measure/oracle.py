"""Delay-weighted shortest paths: the measurement ground truth.

The forwarding plane routes by *cost* (longest-prefix match over FIBs
that IGP/BGP populated from ``Link.cost``), but a user experiences
*delay*.  The oracle answers "what is the lowest-latency path physics
allows right now?" by running Dijkstra over ``Link.delay`` on live
links and live nodes — deliberately separate from
:meth:`repro.net.network.Network.shortest_path` and its
:class:`~repro.perf.cache.PathCache`, which weigh ``Link.cost``.

Trees are memoized per source in a
:class:`~repro.perf.cache.TopologyMemo`, so they are dropped whenever
``Network.topology_version`` changes (link/node state flips during
fault epochs).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.network import Network
from repro.perf.cache import TopologyMemo


def delay_tree(network: Network, src: str) -> Dict[str, float]:
    """Single-source shortest *delay* to every reachable live node.

    Live means: the link is up and both endpoints are up (a crashed
    router forwards nothing, so paths through it do not exist for a
    user).  Deterministic for a fixed topology: strict-``<``
    relaxation with ties broken by heap ``(delay, node_id)`` order,
    exactly like the cost Dijkstra in :mod:`repro.net.network`.
    """
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


class DelayOracle(TopologyMemo[str, Dict[str, float]]):
    """Memoized :func:`delay_tree` lookups, topology-version coherent.

    Construct one per scenario (no module-level instances — the memo is
    mutable state) and ask it for delays as faults come and go; cached
    trees are dropped the moment ``network.topology_version`` moves.
    """

    def __init__(self, network: Network) -> None:
        super().__init__(network, self._run,
                         {"hits": "perf.probe.delay_tree_hits",
                          "misses": "perf.probe.delay_tree_misses"})

    def _run(self, src: str) -> Dict[str, float]:
        if self.obs.enabled:
            self.obs.counter("measure.delay_spf_runs").inc()
        return delay_tree(self.network, src)

    def tree(self, src: str) -> Dict[str, float]:
        return self.get(src)

    def delay(self, src: str, dst: str) -> Optional[float]:
        """One-way best delay from *src* to *dst*; None if unreachable."""
        return self.tree(src).get(dst)

    def best_replica(self, src: str,
                     replicas: Iterable[str]) -> Optional[Tuple[str, float]]:
        """(replica, one-way delay) of the delay-closest live replica.

        Ties break to the lexicographically smallest replica id, so the
        answer is deterministic regardless of *replicas* input order.
        """
        tree = self.tree(src)
        best: Optional[Tuple[str, float]] = None
        for rid in sorted(set(replicas)):
            d = tree.get(rid)
            if d is None:
                continue
            if best is None or d < best[1]:
                best = (rid, d)
        return best
