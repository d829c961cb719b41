"""Property-based invariants over randomly generated internetworks.

These are the system-level guarantees the mechanisms rest on:

* BGP paths are valley-free under Gao-Rexford policy;
* the data plane follows the control plane (a forwarded packet's
  AS-level path equals the source AS's chosen BGP path);
* option-1 anycast delivers to a member whose domain BGP selected;
* IPv4 reachability is total on generated topologies (no blackholes
  from generation or installation bugs).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import Orchestrator
from repro.net import Relationship, ipv4_packet
from repro.anycast import GlobalAnycast
from repro.topogen import InternetSpec, generate_internet

internet_specs = st.builds(
    InternetSpec,
    n_tier1=st.integers(min_value=1, max_value=3),
    n_tier2=st.integers(min_value=1, max_value=4),
    n_stub=st.integers(min_value=2, max_value=6),
    hosts_per_stub=st.just(1),
    seed=st.integers(min_value=0, max_value=10_000),
)

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def is_valley_free(network, as_path):
    """Check the classic valley-free property of an AS path.

    Walking from the first AS towards the origin, the sequence of
    relationship steps must match customer->provider* (peer)?
    provider->customer* — i.e. uphill, at most one peer step, downhill.
    """
    phases = []
    for a, b in zip(as_path, as_path[1:]):
        rel = network.domains[a].relationship_with(b)
        if rel is None:
            return False
        phases.append(rel)
    # as_path runs from the selecting AS towards the origin; each step's
    # relationship is "what b is to a".  Uphill = towards providers.
    seen_peer_or_down = False
    for rel in phases:
        if rel is Relationship.PROVIDER:
            if seen_peer_or_down:
                return False
        else:
            seen_peer_or_down = True
    # At most one PEER step overall (peers don't chain).
    return sum(1 for rel in phases if rel is Relationship.PEER) <= 1


@SETTINGS
@given(spec=internet_specs)
def test_bgp_paths_are_valley_free(spec):
    generated = generate_internet(spec)
    orch = Orchestrator(generated.network)
    orch.converge()
    for asn, speaker in orch.bgp.speakers.items():
        for prefix, route in speaker.loc_rib.items():
            if route.originated:
                continue
            assert is_valley_free(generated.network, route.as_path), (
                asn, str(prefix), route.as_path)


@SETTINGS
@given(spec=internet_specs, data=st.data())
def test_forwarding_follows_bgp_path(spec, data):
    generated = generate_internet(spec)
    orch = Orchestrator(generated.network)
    orch.converge()
    hosts = generated.hosts
    if len(hosts) < 2:
        return
    src = data.draw(st.sampled_from(hosts))
    dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
    net = generated.network
    trace = orch.forward(ipv4_packet(net.node(src).ipv4, net.node(dst).ipv4),
                         src)
    assert trace.delivered, (src, dst, trace)
    src_asn = net.node(src).domain_id
    dst_asn = net.node(dst).domain_id
    expected = (src_asn,)
    if src_asn != dst_asn:
        route = orch.bgp.speaker(src_asn).loc_rib.get(net.domains[dst_asn].prefix)
        assert route is not None
        expected = (src_asn,) + route.as_path
    assert tuple(trace.domain_path()) == expected


@SETTINGS
@given(spec=internet_specs, data=st.data())
def test_option1_anycast_matches_bgp_selection(spec, data):
    generated = generate_internet(spec)
    orch = Orchestrator(generated.network)
    orch.converge()
    scheme = GlobalAnycast(orch, "prop")
    member_domains = data.draw(st.sets(
        st.sampled_from(generated.tier1 + generated.tier2 + generated.stubs),
        min_size=1, max_size=3))
    for asn in sorted(member_domains):
        router = sorted(generated.network.domains[asn].routers)[0]
        scheme.add_member(router)
    orch.reconverge()
    from repro.net.address import Prefix

    anycast_prefix = Prefix.host(scheme.address)
    for host in generated.hosts:
        host_asn = generated.network.node(host).domain_id
        member = scheme.resolve(host)
        if host_asn in member_domains:
            assert member is not None
            assert generated.network.node(member).domain_id == host_asn
            continue
        route = orch.bgp.speaker(host_asn).loc_rib.get(anycast_prefix)
        if route is None:
            assert member is None
        else:
            assert member is not None
            assert (generated.network.node(member).domain_id
                    == route.origin_asn)


@SETTINGS
@given(spec=internet_specs)
def test_generated_internets_fully_reachable(spec):
    generated = generate_internet(spec)
    orch = Orchestrator(generated.network)
    orch.converge()
    net = generated.network
    hosts = generated.hosts
    for src in hosts[:3]:
        for dst in hosts:
            if src == dst:
                continue
            trace = orch.forward(
                ipv4_packet(net.node(src).ipv4, net.node(dst).ipv4), src)
            assert trace.delivered, (src, dst, trace.drop_reason)
