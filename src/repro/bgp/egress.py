"""Topology-versioned egress-link maps for BGP forwarding installation.

Installing converged BGP state asks, for every (domain, next-hop AS)
pair, which live inter-domain links leave the domain towards that
neighbor — the answer drives both hot-potato egress selection and
session liveness checks.  At internet scale a transit AS carries one
route per remote AS over a handful of sessions, so the same scan
(`sorted borders × inter-domain neighbors`) would otherwise repeat for
every group of every install pass and every session check.

:class:`EgressCache` memoizes the scan per ``(asn, next_hop_asn)``
key, invalidated — exactly like :class:`repro.perf.cache.PathCache` —
by any :attr:`~repro.net.network.Network.topology_version` change.
This is answer-preserving because every event that can change the
result bumps the version: link ``fail()``/``restore()`` flips (the
``_on_state_change`` hook), ``add_link``, and node crash/recovery.
Border-router *sets* only grow via ``add_link``/``connect_domains``,
which bump too.

Per rule D4 the hit/miss/invalidation counters are registered behind
``obs.enabled``; the cache keeps plain integer stats that are always
live, so tests need no observability handle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.net.link import LinkScope
from repro.obs import get_obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network


def grouped_install_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


#: One cache key: (domain ASN, next-hop ASN).
EgressKey = Tuple[int, int]
#: One memoized answer: (local border, remote border) pairs.
EgressLinks = List[Tuple[str, str]]


class EgressCache:
    """Memoizes per-domain egress-link scans per topology version.

    Callers treat returned lists as read-only (all in-repo consumers
    do).  ``hits``/``misses``/``invalidations`` are plain integers so
    they are observable without an active
    :class:`~repro.obs.Observability`; the equivalent
    ``perf.bgp.egress_cache.*`` counters feed the bench harness.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.obs = get_obs()
        self._version = network.topology_version
        self._links: Dict[EgressKey, EgressLinks] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- invalidation -----------------------------------------------------
    def _check_version(self) -> None:
        version = self.network.topology_version
        if version != self._version:
            if self._links:
                self._links.clear()
                self.invalidations += 1
                if self.obs.enabled:
                    self.obs.counter(
                        "perf.bgp.egress_cache.invalidations").inc()
            self._version = version

    def __len__(self) -> int:
        return len(self._links)

    # -- queries ----------------------------------------------------------
    def links(self, asn: int, next_hop_asn: int) -> EgressLinks:
        """(local border, remote border) pairs over live links from
        *asn* to *next_hop_asn*."""
        self._check_version()
        key = (asn, next_hop_asn)
        cached = self._links.get(key)
        if cached is not None:
            self.hits += 1
            if self.obs.enabled:
                self.obs.counter("perf.bgp.egress_cache.hits").inc()
            return cached
        self.misses += 1
        if self.obs.enabled:
            self.obs.counter("perf.bgp.egress_cache.misses").inc()
        pairs = self._compute(asn, next_hop_asn)
        self._links[key] = pairs
        return pairs

    def _compute(self, asn: int, next_hop_asn: int) -> EgressLinks:
        """The raw scan, run on a miss."""
        pairs: EgressLinks = []
        domain = self.network.domains[asn]
        for border_id in sorted(domain.border_routers):
            for neighbor_id, _link in self.network.neighbors(
                    border_id, scope=LinkScope.INTER_DOMAIN):
                if self.network.node(neighbor_id).domain_id == next_hop_asn:
                    pairs.append((border_id, neighbor_id))
        return pairs

    def stats(self) -> Dict[str, int]:
        """Plain-int snapshot (works without an observability handle)."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._links)}
