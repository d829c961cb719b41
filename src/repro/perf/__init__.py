"""repro.perf: topology-versioned path caching.

:mod:`repro.perf.cache` holds the :class:`PathCache` memoizing the
network's ground-truth Dijkstra trees per ``topology_version``.  The
package must stay importable from :mod:`repro.net.network`.  Measuring
is the job of the top-level ``bench/`` package (see ``bench/README.md``).
"""

from repro.perf.cache import PathCache

__all__ = ["PathCache"]
