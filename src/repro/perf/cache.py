"""Topology-versioned caching for ground-truth path computation.

Every layer of the simulator ultimately asks the :class:`~repro.net.network.Network`
for shortest paths: metrics stretch per delivered probe, the anycast
service per resolution, redirection baselines, resilience experiments,
and the vN-Bone topology builder.  Recomputing Dijkstra from scratch on
every call is the single largest source of redundant work at
production scale (see ``docs/performance.md``).

The scheme is deliberately simple and *provably* answer-preserving:

* :class:`~repro.net.network.Network` maintains a monotonic
  ``topology_version`` bumped by every mutation that can change a
  shortest path — ``add_link``, ``move_host``, node crash/recovery, and
  any link ``fail()``/``restore()`` (including fault-injector flips,
  which toggle :class:`~repro.net.link.Link` objects directly).
* :class:`PathCache` memoizes full ``shortest_path_tree`` results per
  ``(src, intra_domain_only, domain)`` key and answers
  ``shortest_path(src, dst)`` by walking the cached tree's predecessor
  pointers.  Any version change invalidates the whole cache lazily on
  the next access.

Bit-identical answers: an early-exit Dijkstra towards one destination
and the full ``shortest_path_tree`` both pop ``(distance, node)`` heap
entries, relax with strict ``<`` over the same ``neighbors()`` order,
and link costs are non-negative — so the predecessor chain of every
settled node is identical in both, and reconstructing the path from
the tree yields exactly the path the early-exit search returns.
``tests/oracles.py::early_exit_dijkstra`` is that search, and
``tests/perf/test_path_cache.py`` compares the two over random graphs
with equal-cost ties and fail/restore/add_link sequences.

Per rule D4 the hit/miss/invalidation counters are registered behind
``obs.enabled``; the cache also keeps plain integer stats that are
always live, so tests need no observability handle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs import get_obs

if TYPE_CHECKING:  # import cycle: network.py imports this module
    from repro.net.network import Network


def caching_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


#: One cache key: (source node, intra-domain-only flag, domain filter).
TreeKey = Tuple[str, bool, Optional[int]]
#: One memoized tree: node -> (distance, predecessor).
Tree = Dict[str, Tuple[float, Optional[str]]]


class PathCache:
    """Memoizes :meth:`Network.shortest_path_tree` per topology version.

    The cache holds whole Dijkstra trees; callers treat returned trees
    as read-only (all in-repo consumers do).  ``hits``/``misses``/
    ``invalidations`` are plain integers so they are observable without
    an active :class:`~repro.obs.Observability`; the equivalent
    ``perf.path_cache.*`` counters feed the bench harness.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.obs = get_obs()
        self._version = network.topology_version
        self._trees: Dict[TreeKey, Tree] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- invalidation -----------------------------------------------------
    def _check_version(self) -> None:
        version = self.network.topology_version
        if version != self._version:
            if self._trees:
                self._trees.clear()
                self.invalidations += 1
                if self.obs.enabled:
                    self.obs.counter("perf.path_cache.invalidations").inc()
            self._version = version

    def __len__(self) -> int:
        return len(self._trees)

    # -- queries ----------------------------------------------------------
    def tree(self, src: str, intra_domain_only: bool = False,
             domain: Optional[int] = None) -> Tree:
        """The memoized shortest-path tree rooted at *src*."""
        self._check_version()
        key = (src, intra_domain_only, domain)
        cached = self._trees.get(key)
        if cached is not None:
            self.hits += 1
            if self.obs.enabled:
                self.obs.counter("perf.path_cache.hits").inc()
            return cached
        self.misses += 1
        if self.obs.enabled:
            self.obs.counter("perf.path_cache.misses").inc()
        tree = self.network._compute_shortest_path_tree(  # noqa: SLF001 - cache owns the raw computation
            src, intra_domain_only, domain)
        self._trees[key] = tree
        return tree

    def shortest_path(self, src: str, dst: str, intra_domain_only: bool = False
                      ) -> Optional[Tuple[float, List[str]]]:
        """(cost, node path) from the cached tree, or ``None`` if
        unreachable."""
        tree = self.tree(src, intra_domain_only, None)
        entry = tree.get(dst)
        if entry is None:
            return None
        path = [dst]
        node = dst
        while node != src:
            pred = tree[node][1]
            if pred is None:
                return None  # defensive: only the root lacks a predecessor
            path.append(pred)
            node = pred
        path.reverse()
        return entry[0], path

    def stats(self) -> Dict[str, int]:
        """Plain-int snapshot (works without an observability handle)."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._trees)}
