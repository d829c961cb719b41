"""Internet-scale topology tier: power-law AS graphs, 10k-100k routers.

:mod:`repro.topogen.hierarchy` builds faithful but mid-size
internetworks (hundreds of routers).  The paper's adoption and
fragmentation scenarios presuppose Internet-like scale — thousands of
ASes with the heavy-tailed degree distribution real AS graphs exhibit.
This module generates that tier:

* a **transit core** grown by preferential attachment (Barabási-Albert
  style) from a small tier-1 clique: each new transit AS buys transit
  from ``m_attach`` existing transit ASes chosen proportionally to
  degree, so early/large providers accumulate customers and the degree
  distribution develops a power-law tail;
* a **stub fringe** of single-homed customer ASes whose provider is
  again drawn preferentially, concentrating most stubs under a few
  hypergiant transits.

Running message-driven BGP over tens of thousands of ASes is neither
tractable nor realistic — real stubs overwhelmingly point default
routes at their provider rather than speaking full-table BGP.  The
scale tier models exactly that: stubs are created with
``Domain.default_routed = True`` (so :class:`~repro.bgp.protocol.
BgpProtocol` gives them no speaker and originates nothing for them),
their address blocks are carved out of the provider's aggregate
(provider-assigned /24s inside the transit's /16), and static routes
wire the fringe: every stub router gets a static default toward its
provider uplink, and every provider router gets a static route for
each customer /24.  Longest-prefix match does the rest: remote traffic
follows the provider's BGP-announced /16 into the provider, then the
static /24 into the stub.

All randomness flows from per-AS streams seeded exactly like
:func:`repro.vnbone.deployment.adoption_rng` — the graph is a pure
function of ``ScaleSpec`` (rule D1), and every iteration that feeds
topology construction is sorted (rule D3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain, Relationship
from repro.net.errors import TopologyError
from repro.net.network import DEFAULT_ROUTE, Network
from repro.net.node import FibEntry, RouteSource
from repro.topogen.intra import build_domain_routers

#: Knuth's multiplicative-hash constant (same stream-splitting scheme as
#: ``adoption_rng``): spreads consecutive ASNs into well-separated seeds.
_SCALE_SEED_SALT = 2_654_435_761

#: Base of the scale tier's address plan (disjoint from hierarchy's 10/8).
_ADDRESS_BASE = 20 << 24

#: Transit /16s that fit between the base and the top of IPv4 space.
_MAX_TRANSIT = ((1 << 32) - _ADDRESS_BASE) >> 16

#: A transit /16 has room for 255 customer /24s (sub-block 0 is the
#: transit's own router/host allocation pool).
_MAX_CUSTOMERS_PER_TRANSIT = 255


def scale_rng(asn: int, seed: int = 0) -> random.Random:
    """The canonical seeded RNG stream for AS *asn* in the scale tier.

    Stream 0 (no domain has ASN 0) drives the AS-level attachment
    process; stream *asn* drives that AS's intra-domain graph and host
    placement.  Splitting per AS keeps the generated graph stable under
    spec changes that only touch other ASes' internals.
    """
    return random.Random(asn * _SCALE_SEED_SALT + seed)


@dataclass
class ScaleSpec:
    """Parameters for :func:`generate_scale_internet`."""

    n_transit: int = 40
    n_stub: int = 360
    routers_transit: int = 6
    routers_stub: int = 2
    hosts_per_stub: int = 1
    #: Size of the seed clique of tier-1 peers the core grows from.
    t1_clique: int = 3
    #: Transit providers each non-clique transit AS attaches to.
    m_attach: int = 2
    intra_style: str = "random"
    inter_cost: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        if self.t1_clique < 2:
            raise TopologyError("seed clique needs at least two tier-1 ASes")
        if self.n_transit < self.t1_clique:
            raise TopologyError(
                f"n_transit={self.n_transit} smaller than the "
                f"t1_clique={self.t1_clique} seed")
        if self.m_attach < 1:
            raise TopologyError("m_attach must be at least 1")
        if self.n_transit > _MAX_TRANSIT:
            raise TopologyError(
                f"{self.n_transit} transit ASes exceed the address plan's "
                f"capacity of {_MAX_TRANSIT} transit /16s")
        if self.n_stub > self.n_transit * _MAX_CUSTOMERS_PER_TRANSIT:
            raise TopologyError(
                f"{self.n_stub} stubs exceed the address plan's capacity of "
                f"{_MAX_CUSTOMERS_PER_TRANSIT} customers per transit AS")
        if self.routers_transit < 1 or self.routers_stub < 1:
            raise TopologyError("every domain needs at least one router")
        if self.routers_transit > 254:
            raise TopologyError(
                "a transit AS allocates its routers from sub-block 0 of its "
                "/16; at most 254 fit")
        if self.routers_stub + self.hosts_per_stub > 254:
            raise TopologyError("a stub /24 holds at most 254 routers+hosts")


@dataclass
class GeneratedScaleInternet:
    """The scale generator's output: network plus tier bookkeeping."""

    network: Network
    spec: ScaleSpec
    transit: List[int] = field(default_factory=list)
    stubs: List[int] = field(default_factory=list)
    routers_by_asn: Dict[int, List[str]] = field(default_factory=dict)
    hosts: List[str] = field(default_factory=list)
    #: Per stub ASN: (stub border, provider ASN, provider border).
    uplinks: Dict[int, Tuple[str, int, str]] = field(default_factory=dict)


def _transit_prefix(index: int) -> Prefix:
    return Prefix(IPv4Address(_ADDRESS_BASE + (index << 16)), 16)


def _stub_prefix(provider_index: int, customer_index: int) -> Prefix:
    if not 1 <= customer_index <= _MAX_CUSTOMERS_PER_TRANSIT:
        raise TopologyError(
            f"customer index {customer_index} outside 1..255")
    value = _ADDRESS_BASE + (provider_index << 16) + (customer_index << 8)
    return Prefix(IPv4Address(value), 24)


class _PreferentialSampler:
    """Degree-proportional AS sampling (repeated-node list)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._targets: List[int] = []

    def record_edge(self, a: int, b: int) -> None:
        self._targets.append(a)
        self._targets.append(b)

    def record_endpoint(self, asn: int) -> None:
        self._targets.append(asn)

    def sample(self, exclude: Tuple[int, ...] = ()) -> Optional[int]:
        """One degree-proportional draw avoiding *exclude* (bounded retries)."""
        if not self._targets:
            return None
        for _ in range(32):
            pick = self._targets[self._rng.randrange(len(self._targets))]
            if pick not in exclude:
                return pick
        return None


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


def generate_scale_internet(spec: ScaleSpec) -> GeneratedScaleInternet:
    """Build a power-law internetwork from *spec* (deterministic in the seed)."""
    spec.validate()
    rng = scale_rng(0, spec.seed)
    network = Network()
    result = GeneratedScaleInternet(network=network, spec=spec)
    picker = _BorderPicker(network)
    sampler = _PreferentialSampler(rng)

    _build_transit_core(spec, result, picker, sampler)
    _attach_stubs(spec, result, picker, sampler)
    _install_static_fringe_routes(result)
    return result


def _make_domain(result: GeneratedScaleInternet, asn: int, prefix: Prefix,
                 tier: int, router_count: int, border_count: int,
                 default_routed: bool = False) -> None:
    spec = result.spec
    domain = Domain(asn=asn, name=f"as{asn}", prefix=prefix, tier=tier,
                    default_routed=default_routed)
    result.network.add_domain(domain)
    routers = build_domain_routers(result.network, asn, router_count,
                                   spec.intra_style,
                                   border_count=border_count,
                                   rng=scale_rng(asn, spec.seed))
    result.routers_by_asn[asn] = routers


def _build_transit_core(spec: ScaleSpec, result: GeneratedScaleInternet,
                        picker: _BorderPicker,
                        sampler: _PreferentialSampler) -> None:
    network = result.network
    border_count = max(2, min(spec.routers_transit, 4))
    for index in range(spec.n_transit):
        asn = index + 1
        tier = 1 if index < spec.t1_clique else 2
        _make_domain(result, asn, _transit_prefix(index), tier,
                     spec.routers_transit, border_count)
        result.transit.append(asn)

    clique = result.transit[:spec.t1_clique]
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            network.connect_domains(a, b, picker.pick(a), picker.pick(b),
                                    Relationship.PEER, cost=spec.inter_cost)
            sampler.record_edge(a, b)

    # Preferential attachment: each later transit AS buys transit from
    # m_attach distinct, degree-proportionally chosen earlier ASes.
    for asn in result.transit[spec.t1_clique:]:
        providers: List[int] = []
        while len(providers) < spec.m_attach:
            exclude = tuple(providers) + (asn,)
            provider = sampler.sample(exclude=exclude)
            if provider is None:
                # Degenerate sampler state: fall back to the lowest-ASN
                # eligible AS so the graph stays connected.
                eligible = [a for a in result.transit
                            if a < asn and a not in providers]
                if not eligible:
                    break
                provider = eligible[0]
            providers.append(provider)
        for provider in providers:
            network.connect_domains(asn, provider, picker.pick(asn),
                                    picker.pick(provider),
                                    Relationship.PROVIDER,
                                    cost=spec.inter_cost)
            sampler.record_edge(asn, provider)


def _attach_stubs(spec: ScaleSpec, result: GeneratedScaleInternet,
                  picker: _BorderPicker,
                  sampler: _PreferentialSampler) -> None:
    network = result.network
    customer_count: Dict[int, int] = {asn: 0 for asn in result.transit}
    for stub_index in range(spec.n_stub):
        asn = spec.n_transit + stub_index + 1
        provider = _pick_provider(result, sampler, customer_count)
        provider_index = provider - 1
        customer_count[provider] += 1
        prefix = _stub_prefix(provider_index, customer_count[provider])
        _make_domain(result, asn, prefix, 3, spec.routers_stub,
                     border_count=1, default_routed=True)
        result.stubs.append(asn)
        stub_border = picker.pick(asn)
        provider_border = picker.pick(provider)
        network.connect_domains(asn, provider, stub_border, provider_border,
                                Relationship.PROVIDER, cost=spec.inter_cost)
        # Stub degree stays 1; only the provider gains attachment mass.
        sampler.record_endpoint(provider)
        result.uplinks[asn] = (stub_border, provider, provider_border)
        _attach_hosts(result, asn)


def _pick_provider(result: GeneratedScaleInternet,
                   sampler: _PreferentialSampler,
                   customer_count: Dict[int, int]) -> int:
    full = tuple(asn for asn, count in sorted(customer_count.items())
                 if count >= _MAX_CUSTOMERS_PER_TRANSIT)
    provider = sampler.sample(exclude=full)
    if provider is None:
        # All draws hit full providers: take the least-loaded transit AS.
        open_transits = [(count, asn) for asn, count
                         in sorted(customer_count.items())
                         if count < _MAX_CUSTOMERS_PER_TRANSIT]
        if not open_transits:
            raise TopologyError("every transit AS is at customer capacity")
        provider = min(open_transits)[1]
    return provider


def _attach_hosts(result: GeneratedScaleInternet, asn: int) -> None:
    rng = scale_rng(asn, result.spec.seed + 1)
    routers = result.routers_by_asn[asn]
    for index in range(result.spec.hosts_per_stub):
        access = routers[rng.randrange(len(routers))]
        host_id = f"h{asn}n{index}"
        result.network.add_host(host_id, asn, access)
        result.hosts.append(host_id)


def _install_static_fringe_routes(result: GeneratedScaleInternet) -> None:
    """Wire the default-routed fringe with static state.

    Run once, after the full topology exists: every stub router gets a
    static default toward the uplink border, and every provider router
    gets a static route for the customer /24.  ``RouteSource.STATIC``
    outranks BGP and survives ``withdraw_all(RouteSource.BGP)``, so
    reconvergence never strips the fringe.
    """
    network = result.network
    # Static installs leave the topology version alone, so a border's
    # tree is computed once and then served by the path cache.
    for stub_asn in result.stubs:
        stub_border, provider_asn, provider_border = result.uplinks[stub_asn]
        stub_domain = network.domains[stub_asn]
        stub_tree = network.shortest_path_tree(
            stub_border, intra_domain_only=True, domain=stub_asn)
        for router_id in sorted(stub_domain.routers):
            if router_id == stub_border:
                next_hop = provider_border
            else:
                info = stub_tree.get(router_id)
                if info is None or info[1] is None:
                    raise TopologyError(
                        f"stub AS{stub_asn} router {router_id!r} cannot "
                        f"reach its uplink border {stub_border!r}")
                next_hop = info[1]
            network.node(router_id).fib4.install(
                FibEntry(prefix=DEFAULT_ROUTE, next_hop=next_hop,
                         source=RouteSource.STATIC))
        provider_domain = network.domains[provider_asn]
        provider_tree = network.shortest_path_tree(
            provider_border, intra_domain_only=True, domain=provider_asn)
        for router_id in sorted(provider_domain.routers):
            if router_id == provider_border:
                next_hop = stub_border
            else:
                info = provider_tree.get(router_id)
                if info is None or info[1] is None:
                    continue  # partitioned provider router; IGP-less corner
                next_hop = info[1]
            network.node(router_id).fib4.install(
                FibEntry(prefix=stub_domain.prefix, next_hop=next_hop,
                         source=RouteSource.STATIC))


def spec_for_router_budget(n_routers: int, seed: int = 0) -> ScaleSpec:
    """A :class:`ScaleSpec` sized to roughly *n_routers* total routers.

    Used by the ``--scale-sweep`` bench: ~12% of the router budget goes
    to the BGP-speaking transit core, the rest to default-routed stubs.
    """
    if n_routers < 50:
        raise TopologyError("the scale tier starts at 50 routers; use "
                            "topogen.hierarchy below that")
    routers_transit = 6
    routers_stub = 2
    n_transit = max(4, round(n_routers * 0.12 / routers_transit))
    remaining = n_routers - n_transit * routers_transit
    n_stub = max(1, remaining // routers_stub)
    return ScaleSpec(n_transit=n_transit, n_stub=n_stub,
                     routers_transit=routers_transit,
                     routers_stub=routers_stub, seed=seed)
