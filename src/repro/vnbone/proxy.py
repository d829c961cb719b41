"""Advertising-by-proxy (Figure 4 of the paper).

IPvN border routers whose domains sit close — in IPv(N-1) AS-path
terms — to a non-IPvN destination domain advertise "their distance to
Z" *into the BGPvN routing protocol*.  Other members then route
packets for Z's self-addressed block across the vN-Bone towards the
best proxy, instead of exiting immediately; the packet rides the
vN-Bone as far as deployment allows.

This module is a thin, figure-faithful wrapper over the shared egress
machinery (:func:`repro.vnbone.egress.external_owner_entries` with the
``PROXY`` policy): it exposes the threshold knob and per-domain
inspection of who proxies what — the bench for F4 uses it to show path
A→Z shifting from an early exit to a vN-Bone ride via B or C.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.net.errors import ParameterError
from repro.net.network import Network
from repro.bgp.protocol import BgpProtocol
from repro.vnbone.egress import EgressPolicy, external_owner_entries
from repro.vnbone.routing import OwnerEntry


class ProxyAdvertiser:
    """Computes advertising-by-proxy originations for one deployment."""

    def __init__(self, network: Network, bgp: BgpProtocol, version: int,
                 threshold: int = 1) -> None:
        if threshold < 0:
            raise ParameterError("proxy threshold must be non-negative")
        self.network = network
        self.bgp = bgp
        self.version = version
        #: Maximum IPv(N-1) AS-path length at which a member still
        #: proxies a destination domain (1 = direct neighbors only).
        self.threshold = threshold

    def owner_entries(self, members: Iterable[str],
                      adopting_asns: Set[int]) -> List[OwnerEntry]:
        """Proxy advertisements for all non-adopting destination domains."""
        return external_owner_entries(self.network, self.bgp, self.version,
                                      members, EgressPolicy.PROXY,
                                      adopting_asns,
                                      proxy_threshold=self.threshold)

    def proxies_for_domain(self, asn: int, members: Iterable[str],
                           adopting_asns: Set[int]) -> List[str]:
        """Which members proxy destination domain *asn* (for inspection)."""
        target_prefix = self.network.domains[asn].prefix
        entries = self.owner_entries(members, adopting_asns)
        from repro.vnbone.state import vn_prefix_for_ipv4

        wanted = vn_prefix_for_ipv4(target_prefix, version=self.version)
        return sorted({e.owner for e in entries if e.prefix == wanted})

    def coverage(self, members: Iterable[str],
                 adopting_asns: Set[int]) -> Dict[int, int]:
        """Per external domain, how many members proxy it."""
        entries = self.owner_entries(members, adopting_asns)
        from repro.vnbone.state import vn_prefix_for_ipv4

        prefix_to_asn = {
            vn_prefix_for_ipv4(self.network.domains[asn].prefix,
                               version=self.version): asn
            for asn in self.network.domains if asn not in adopting_asns}
        counts = {asn: 0 for asn in prefix_to_asn.values()}
        for entry in entries:
            asn = prefix_to_asn.get(entry.prefix)
            if asn is not None:
                counts[asn] += 1
        return counts
