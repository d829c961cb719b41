"""repro.perf: topology-versioned memoization.

:mod:`repro.perf.cache` holds :class:`TopologyMemo` — the one rule for
when a topology-derived answer goes stale (``topology_version`` moved)
— and the :class:`PathCache` that memoizes the network's ground-truth
Dijkstra trees under it.  The package must stay importable from
:mod:`repro.net.network`.  Measuring is the job of the top-level
``bench/`` package (see ``bench/README.md``).
"""

from repro.perf.cache import PathCache, TopologyMemo

__all__ = ["PathCache", "TopologyMemo"]
