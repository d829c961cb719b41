"""AS-level Internet generator: a tiered provider hierarchy.

Generates the standard three-tier structure used in inter-domain
routing studies: a clique of tier-1 transit providers, a layer of
tier-2 regional providers multihomed to the tier-1s (with some
settlement-free tier-2 peering), and stub/access domains multihomed to
tier-2s.  Every domain gets a router-level topology from
:mod:`repro.topogen.intra` and an address block; stubs (and optionally
tier-2s) get endhosts.

All randomness flows from the spec's seed, so a given spec always
yields the same internetwork — experiments are reproducible runs, not
snowflakes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain, Relationship
from repro.net.errors import TopologyError
from repro.net.network import Network
from repro.topogen.intra import build_domain_routers


@dataclass
class InternetSpec:
    """Parameters for :func:`generate_internet`."""

    n_tier1: int = 3
    n_tier2: int = 6
    n_stub: int = 12
    routers_tier1: int = 5
    routers_tier2: int = 4
    routers_stub: int = 2
    hosts_per_stub: int = 2
    hosts_per_tier2: int = 0
    intra_style: str = "random"
    tier2_provider_range: Tuple[int, int] = (1, 2)
    stub_provider_range: Tuple[int, int] = (1, 2)
    tier2_peer_prob: float = 0.25
    inter_cost: float = 2.0
    seed: int = 0

    def total_domains(self) -> int:
        return self.n_tier1 + self.n_tier2 + self.n_stub


@dataclass
class GeneratedInternet:
    """The generator's output: the network plus tier bookkeeping."""

    network: Network
    spec: InternetSpec
    tier1: List[int] = field(default_factory=list)
    tier2: List[int] = field(default_factory=list)
    stubs: List[int] = field(default_factory=list)
    routers_by_asn: Dict[int, List[str]] = field(default_factory=dict)
    hosts: List[str] = field(default_factory=list)


def _domain_prefix(asn: int) -> Prefix:
    if asn > 255:
        raise TopologyError("generator supports at most 255 domains (10.asn/16 blocks)")
    return Prefix(IPv4Address((10 << 24) | (asn << 16)), 16)


class _BorderPicker:
    """Round-robins inter-domain link endpoints over a domain's borders."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._next: Dict[int, int] = {}

    def pick(self, asn: int) -> str:
        borders = sorted(self.network.domains[asn].border_routers)
        if not borders:
            raise TopologyError(f"AS{asn} has no border routers")
        index = self._next.get(asn, 0)
        self._next[asn] = index + 1
        return borders[index % len(borders)]


def generate_internet(spec: InternetSpec) -> GeneratedInternet:
    """Build a tiered internetwork from *spec* (deterministic in the seed)."""
    if spec.n_tier1 < 1:
        raise TopologyError("need at least one tier-1 domain")
    rng = random.Random(spec.seed)
    network = Network()
    result = GeneratedInternet(network=network, spec=spec)
    picker = _BorderPicker(network)
    next_asn = 1

    def make_domain(tier: int, router_count: int, border_count: int) -> int:
        nonlocal next_asn
        asn = next_asn
        next_asn += 1
        domain = Domain(asn=asn, name=f"as{asn}", prefix=_domain_prefix(asn),
                        tier=tier)
        network.add_domain(domain)
        routers = build_domain_routers(network, asn, router_count,
                                       spec.intra_style,
                                       border_count=border_count,
                                       rng=random.Random(spec.seed * 1000 + asn))
        result.routers_by_asn[asn] = routers
        return asn

    # Tier 1: clique of peers.
    for _ in range(spec.n_tier1):
        asn = make_domain(1, spec.routers_tier1,
                          border_count=max(2, spec.n_tier1 - 1))
        result.tier1.append(asn)
    for i, a in enumerate(result.tier1):
        for b in result.tier1[i + 1:]:
            network.connect_domains(a, b, picker.pick(a), picker.pick(b),
                                    Relationship.PEER, cost=spec.inter_cost)

    # Tier 2: customers of one or more tier-1s, with some peering.
    for _ in range(spec.n_tier2):
        asn = make_domain(2, spec.routers_tier2, border_count=2)
        result.tier2.append(asn)
        count = rng.randint(*spec.tier2_provider_range)
        providers = rng.sample(result.tier1, min(count, len(result.tier1)))
        for provider in providers:
            network.connect_domains(asn, provider, picker.pick(asn),
                                    picker.pick(provider),
                                    Relationship.PROVIDER, cost=spec.inter_cost)
    for i, a in enumerate(result.tier2):
        for b in result.tier2[i + 1:]:
            if rng.random() < spec.tier2_peer_prob:
                network.connect_domains(a, b, picker.pick(a), picker.pick(b),
                                        Relationship.PEER, cost=spec.inter_cost)

    # Stubs: customers of tier-2s (or a tier-1 when there are no tier-2s).
    provider_pool = result.tier2 if result.tier2 else result.tier1
    for _ in range(spec.n_stub):
        asn = make_domain(3, spec.routers_stub, border_count=1)
        result.stubs.append(asn)
        count = rng.randint(*spec.stub_provider_range)
        providers = rng.sample(provider_pool, min(count, len(provider_pool)))
        for provider in providers:
            network.connect_domains(asn, provider, picker.pick(asn),
                                    picker.pick(provider),
                                    Relationship.PROVIDER, cost=spec.inter_cost)

    # Hosts.
    for asn in result.stubs:
        _attach_hosts(network, result, asn, spec.hosts_per_stub, rng)
    for asn in result.tier2:
        _attach_hosts(network, result, asn, spec.hosts_per_tier2, rng)
    return result


def _attach_hosts(network: Network, result: GeneratedInternet, asn: int,
                  count: int, rng: random.Random) -> None:
    routers = result.routers_by_asn[asn]
    for index in range(count):
        access = routers[rng.randrange(len(routers))]
        host_id = f"h{asn}n{index}"
        network.add_host(host_id, asn, access)
        result.hosts.append(host_id)
