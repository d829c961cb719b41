"""Topology-versioned egress-link maps for BGP forwarding installation.

Installing converged BGP state asks, for every (domain, next-hop AS)
pair, which live inter-domain links leave the domain towards that
neighbor — the answer drives both hot-potato egress selection and
session liveness checks.  At internet scale a transit AS carries one
route per remote AS over a handful of sessions, so the same scan
(`sorted borders × inter-domain neighbors`) would otherwise repeat for
every group of every install pass and every session check.

:class:`EgressCache` memoizes the scan per ``(asn, next_hop_asn)`` key
in a :class:`~repro.perf.cache.TopologyMemo`.  That is
answer-preserving because every event that can change the result moves
``Network.topology_version``: link ``fail()``/``restore()`` flips (the
``_on_state_change`` hook), ``add_link``, and node crash/recovery.
Border-router *sets* only grow via ``add_link``/``connect_domains``,
which bump too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.net.link import LinkScope
from repro.perf.cache import TopologyMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network


def grouped_install_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


#: One cache key: (domain ASN, next-hop ASN).
EgressKey = Tuple[int, int]
#: One memoized answer: (local border, remote border) pairs.
EgressLinks = List[Tuple[str, str]]


class EgressCache(TopologyMemo[EgressKey, EgressLinks]):
    """Memoizes per-domain egress-link scans; the equivalent
    ``perf.bgp.egress_cache.*`` counters feed the bench harness."""

    def __init__(self, network: "Network") -> None:
        super().__init__(
            network, self._scan,
            {event: f"perf.bgp.egress_cache.{event}"
             for event in ("hits", "misses", "invalidations")})

    def links(self, asn: int, next_hop_asn: int) -> EgressLinks:
        """(local border, remote border) pairs over live links from
        *asn* to *next_hop_asn*."""
        return self.get((asn, next_hop_asn))

    def _scan(self, key: EgressKey) -> EgressLinks:
        asn, next_hop_asn = key
        pairs: EgressLinks = []
        domain = self.network.domains[asn]
        for border_id in sorted(domain.border_routers):
            for neighbor_id, _link in self.network.neighbors(
                    border_id, scope=LinkScope.INTER_DOMAIN):
                if self.network.node(neighbor_id).domain_id == next_hop_asn:
                    pairs.append((border_id, neighbor_id))
        return pairs
