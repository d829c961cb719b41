"""Topology-versioned memoization: one freshness rule, and the path cache.

:class:`~repro.net.network.Network` maintains a monotonic
``topology_version`` bumped by every mutation that can change a path —
``add_link``, ``move_host``, node crash/recovery, and any link
``fail()``/``restore()`` (including fault-injector flips, which toggle
:class:`~repro.net.link.Link` objects directly).  :class:`TopologyMemo`
is the one place that turns the counter into a cache rule: *a memoized
answer is valid while the version holds*; any change drops the whole
table, lazily, on the next access.  :class:`PathCache` (here),
:class:`~repro.bgp.egress.EgressCache` and
:class:`~repro.measure.oracle.DelayOracle` (nearest live replicas, and
whole delay trees in its ``trees`` memo) are that memo plus what they
compute.

Each mutation also bumps ``Network.domain_version`` of the domains it
touches (both endpoint domains of a link, a node's domain, a moved
host's old and new domain).  No memo reads it — the link-state refresh
gate does; what the memos would save by it was measured and left
(``docs/performance.md``).

Every layer of the simulator ultimately asks the network for shortest
paths (stretch per delivered probe, anycast resolution, redirection
baselines, resilience experiments, the vN-Bone topology builder).
:class:`PathCache` memoizes full ``shortest_path_tree`` results per
``(src, intra_domain_only, domain)`` key and answers
``shortest_path(src, dst)`` by walking the tree's predecessor pointers.

Bit-identical answers: an early-exit Dijkstra towards one destination
and the full ``shortest_path_tree`` both pop ``(distance, node)`` heap
entries, relax with strict ``<`` over the same ``neighbors()`` order,
and link costs are non-negative — so the predecessor chain of every
settled node is identical in both, and reconstructing the path from
the tree yields exactly the path the early-exit search returns.
``tests/oracles.py::early_exit_dijkstra`` is that search, and
``tests/perf/test_path_cache.py`` compares the two over random graphs
with equal-cost ties and fail/restore/add_link sequences.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Generic, Hashable, List,
                    Mapping, Optional, Tuple, TypeVar)

from repro.obs import get_obs

if TYPE_CHECKING:  # import cycle: network.py imports this module
    from repro.net.network import Network


def caching_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class TopologyMemo(Generic[K, V]):
    """``compute(key)``, memoized while ``network.topology_version`` holds.

    Callers treat returned values as read-only (they are shared between
    hits).  ``hits``/``misses``/``invalidations`` are plain integers, so
    they are observable without an active
    :class:`~repro.obs.Observability`; *counters* names the obs counter
    (if any) that mirrors each of the three.
    """

    def __init__(self, network: "Network", compute: Callable[[K], V],
                 counters: Mapping[str, str]) -> None:
        self.network = network
        self.compute = compute
        self.obs = get_obs()
        self._counters = counters
        self._version = network.topology_version
        self._table: Dict[K, V] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _count(self, event: str) -> None:
        if self.obs.enabled and event in self._counters:
            self.obs.counter(self._counters[event]).inc()

    def get(self, key: K) -> V:
        """The memoized ``compute(key)`` for the current topology."""
        version = self.network.topology_version
        if version != self._version:
            self._version = version
            if self._table:
                self._table.clear()
                self.invalidations += 1
                self._count("invalidations")
        if key in self._table:
            self.hits += 1
            self._count("hits")
            return self._table[key]
        self.misses += 1
        self._count("misses")
        value = self._table[key] = self.compute(key)
        return value

    def stats(self) -> Dict[str, int]:
        """Plain-int snapshot (works without an observability handle)."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._table)}


#: One cache key: (source node, intra-domain-only flag, domain filter).
TreeKey = Tuple[str, bool, Optional[int]]
#: One memoized tree: node -> (distance, predecessor).
Tree = Dict[str, Tuple[float, Optional[str]]]


class PathCache(TopologyMemo[TreeKey, Tree]):
    """Memoizes :meth:`Network.shortest_path_tree`; the equivalent
    ``perf.path_cache.*`` counters feed the bench harness."""

    def __init__(self, network: "Network") -> None:
        super().__init__(
            network,
            lambda key: network._compute_shortest_path_tree(*key),  # noqa: SLF001 - cache owns the raw computation
            {event: f"perf.path_cache.{event}"
             for event in ("hits", "misses", "invalidations")})

    def tree(self, src: str, intra_domain_only: bool = False,
             domain: Optional[int] = None) -> Tree:
        """The memoized shortest-path tree rooted at *src*."""
        return self.get((src, intra_domain_only, domain))

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
