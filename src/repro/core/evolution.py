"""The top-level public API: an evolvable internetwork.

:class:`EvolvableInternet` is the one object most users need.  It wraps
a topology (generated or hand-built), converges the IPv(N-1) control
planes, and manages IPvN deployments — each a
:class:`~repro.vnbone.deployment.VnDeployment` bound to an anycast
redirection scheme.

Typical use::

    from repro.core.evolution import EvolvableInternet

    internet = EvolvableInternet.generate(seed=7)
    ipv8 = internet.new_deployment(version=8, scheme="default",
                                   default_asn=internet.tier1_asns()[0])
    ipv8.deploy(internet.tier1_asns()[0])
    ipv8.rebuild()
    trace = ipv8.send(src_host, dst_host)   # works from *any* host

Universal access in one line: ``internet.reachability(8)`` measures the
fraction of host pairs that can exchange IPvN packets.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.errors import DeploymentError, RoutingError
from repro.net.network import Network
from repro.core.metrics import ReachabilityReport, measure_reachability
from repro.core.orchestrator import Orchestrator
from repro.anycast.default_routes import DefaultRootedAnycast
from repro.anycast.gia import GiaAnycast
from repro.anycast.global_routes import AnycastAddressPool, GlobalAnycast
from repro.anycast.service import AnycastScheme
from repro.vnbone.deployment import VnDeployment
from repro.vnbone.egress import EgressPolicy
from repro.topogen.hierarchy import (GeneratedInternet, InternetSpec,
                                     generate_internet)

SCHEME_KINDS = ("default", "global", "gia")


class EvolvableInternet:
    """An internetwork that can grow new IP generations."""

    def __init__(self, network: Network, seed: int = 0,
                 igp_kind: str = "linkstate",
                 igp_overrides: Optional[Dict[int, str]] = None,
                 generated: Optional[GeneratedInternet] = None) -> None:
        self.network = network
        self.orchestrator = Orchestrator(network, seed=seed, igp_kind=igp_kind,
                                         igp_overrides=igp_overrides)
        self.generated = generated
        self.deployments: Dict[int, VnDeployment] = {}
        self._anycast_pool = AnycastAddressPool()
        self.orchestrator.converge()

    # -- construction ----------------------------------------------------------
    @classmethod
    def generate(cls, spec: Optional[InternetSpec] = None, seed: int = 0,
                 igp_kind: str = "linkstate",
                 igp_overrides: Optional[Dict[int, str]] = None
                 ) -> "EvolvableInternet":
        """Generate a tiered internetwork and converge it."""
        spec = spec if spec is not None else InternetSpec(seed=seed)
        generated = generate_internet(spec)
        return cls(generated.network, seed=seed, igp_kind=igp_kind,
                   igp_overrides=igp_overrides, generated=generated)

    def tier1_asns(self) -> List[int]:
        return sorted(asn for asn, d in self.network.domains.items() if d.tier == 1)

    def stub_asns(self) -> List[int]:
        tiers = {d.tier for d in self.network.domains.values()}
        edge = max(tiers)
        return sorted(asn for asn, d in self.network.domains.items()
                      if d.tier == edge)

    def hosts(self) -> List[str]:
        return sorted(n.node_id for n in self.network.nodes.values() if n.is_host)

    # -- deployments -------------------------------------------------------------------
    def new_deployment(self, version: int = 8, scheme: str = "default",
                       default_asn: Optional[int] = None,
                       home_asn: Optional[int] = None,
                       k_neighbors: int = 2,
                       egress_policy: EgressPolicy = EgressPolicy.BGP_INFORMED,
                       proxy_threshold: int = 1,
                       fallback_exit: bool = True) -> VnDeployment:
        """Create the machinery for a new IP generation.

        ``scheme`` selects the inter-domain anycast option: ``"default"``
        (option 2, needs ``default_asn``), ``"global"`` (option 1), or
        ``"gia"`` (needs ``home_asn``).
        """
        if version in self.deployments:
            raise DeploymentError(f"IPv{version} deployment already exists")
        scheme_obj = self._make_scheme(scheme, version, default_asn, home_asn)
        deployment = VnDeployment(self.orchestrator, scheme_obj, version=version,
                                  k_neighbors=k_neighbors,
                                  egress_policy=egress_policy,
                                  proxy_threshold=proxy_threshold,
                                  fallback_exit=fallback_exit)
        self.deployments[version] = deployment
        return deployment

    def _make_scheme(self, kind: str, version: int, default_asn: Optional[int],
                     home_asn: Optional[int]) -> AnycastScheme:
        name = f"ipv{version}"
        if kind == "default":
            if default_asn is None:
                default_asn = self.tier1_asns()[0] if self.tier1_asns() else \
                    sorted(self.network.domains)[0]
            return DefaultRootedAnycast(self.orchestrator, name,
                                        default_asn=default_asn)
        if kind == "global":
            return GlobalAnycast(self.orchestrator, name, pool=self._anycast_pool)
        if kind == "gia":
            if home_asn is None:
                raise DeploymentError("GIA scheme needs home_asn")
            return GiaAnycast(self.orchestrator, name, home_asn=home_asn)
        raise DeploymentError(f"unknown scheme {kind!r}; choose from {SCHEME_KINDS}")

    def deployment(self, version: int) -> VnDeployment:
        try:
            return self.deployments[version]
        except KeyError:
            raise DeploymentError(f"no IPv{version} deployment") from None

    # -- measurement ------------------------------------------------------------------------
    def host_pairs(self, sample: Optional[int] = None,
                   seed: int = 0) -> List[Tuple[str, str]]:
        """All ordered host pairs, optionally a seeded random sample."""
        hosts = self.hosts()
        pairs = [(a, b) for a, b in itertools.permutations(hosts, 2)]
        if sample is not None and sample < len(pairs):
            pairs = random.Random(seed).sample(pairs, sample)
        return pairs

    def reachability(self, version: int, sample: Optional[int] = None,
                     seed: int = 0) -> ReachabilityReport:
        """Universal-access measurement: IPvN delivery over host pairs."""
        deployment = self.deployment(version)
        if deployment.needs_rebuild:
            deployment.rebuild()
        pairs = self.host_pairs(sample=sample, seed=seed)
        return measure_reachability(self.network, deployment.send, pairs)

    def describe(self) -> Dict[str, object]:
        info: Dict[str, object] = dict(self.network.stats())
        info["deployments"] = {
            version: sorted(dep.adopting_asns())
            for version, dep in sorted(self.deployments.items())}
        return info
