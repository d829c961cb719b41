"""The IPv4 segment loop walks exactly as the hop-by-hop walk did.

``ForwardingEngine._walk`` carries an IPv4 segment with its TTL, hop
count and latency in locals and writes them back once per segment.
Every generated packet is sent through it and through
``tests/oracles.py::reference_walk`` (one ``record`` and one new header
per hop) on the same network, and the two must agree on the trace's
dict, on every slot of the hop log (nodes and FIB entries by identity),
on the deepest depth, on the packet's final headers and, under
``strict=True``, on the exception's type and message.

The networks are a few routers with static FIB rows drawn at random:
loops, blackholes (local rows), next hops that are not neighbours or
not nodes at all, a default route under the host routes, an anycast
address accepted by some transit routers, down links and down routers
whose links stay up, and one host.  Packets are plain IPv4 or IPv4 over
IPvN; the IPvN routers' handler forwards, exits, delivers, drops or
replicates per router, so one walk crosses several segments.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.net import Domain, Network, Prefix, ipv4
from repro.net.address import VNAddress
from repro.net.errors import ForwardingError, ForwardingLoopError
from repro.net.forwarding import (ForwardingEngine, ForwardingTrace, VnDeliver,
                                  VnDrop, VnEgress, VnForward, VnReplicate)
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import IPv4Header, Packet, vn_packet

from tests.oracles import reference_walk

ROUTERS = [f"r{i}" for i in range(5)]
HOST = "h"
ANYCAST = ipv4("240.0.0.1")
UNROUTED = ipv4("99.0.0.1")
HOST_VN = VNAddress(5)
#: Delays whose running sums round differently in different orders.
DELAYS = [0.1, 0.2, 0.3, 1.0, 1.7, 0.0]
#: A FIB row's next hop: a router (a neighbour or not), a node that
#: does not exist, or None for a local (blackhole) row.
NEXT_HOPS = st.one_of(st.sampled_from(ROUTERS + [HOST, "ghost"]), st.none())


@st.composite
def worlds(draw):
    """A network, an armed engine, and what to send from where."""
    n = draw(st.integers(3, len(ROUTERS)))
    routers = ROUTERS[:n]
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    for router in routers:
        net.add_router(router, 1)
    # A chain r0 - r1 - ... with chords.
    chain = list(zip(routers, routers[1:]))
    chords = [(a, b) for i, a in enumerate(routers) for b in routers[i + 2:]]
    for a, b in chain + draw(st.lists(st.sampled_from(chords), unique=True)):
        net.add_link(a, b, delay=draw(st.sampled_from(DELAYS)))
    host = net.add_host(HOST, 1, draw(st.sampled_from(routers)))
    host.assign_vn_address(HOST_VN)
    vn_routers = draw(st.lists(st.sampled_from(routers), unique=True,
                               min_size=1))
    members = set(vn_routers) | set(draw(st.lists(st.sampled_from(routers))))
    for router in members:
        net.node(router).add_local_ipv4(ANYCAST)
    # Shortest-path rows towards every router, the host and the nearest
    # anycast member, then rows overwritten at random.
    targets = {net.node(r).ipv4: {r} for r in routers}
    targets[host.ipv4] = {host.access_router}
    targets[ANYCAST] = members
    for dst, owners in targets.items():
        for router, next_hop in _toward(net, routers, owners).items():
            net.node(router).fib4.install(_row(Prefix.host(dst), next_hop))
    destinations = sorted(targets) + [UNROUTED]
    for router in draw(st.lists(st.sampled_from(routers))):
        fib = net.node(router).fib4
        if draw(st.booleans()):
            fib.install(_row(Prefix.parse("0.0.0.0/0"), draw(NEXT_HOPS)))
        else:
            fib.install(_row(Prefix.host(draw(st.sampled_from(destinations))),
                             draw(NEXT_HOPS)))

    engine = ForwardingEngine(net, max_steps=draw(st.integers(3, 20)))
    decisions = {router: draw(st.one_of(
        st.builds(VnForward, st.sampled_from(routers)),
        st.builds(VnEgress, st.sampled_from(destinations)),
        st.sampled_from([VnDeliver(), VnDrop("policy"),
                         VnReplicate(copies=(VnForward(routers[0]),))])))
        for router in vn_routers}
    engine.register_vn_handler(8, lambda node, packet: decisions[node.node_id])
    for router in decisions:
        net.node(router).set_vn_state(8, object())

    fault = draw(st.sampled_from(["none", "link", "router"]))
    if fault == "link":
        net.links[draw(st.sampled_from(sorted(net.links)))].fail()
    elif fault == "router":
        # Down with its links still up: the walk's own check drops it.
        net.node(draw(st.sampled_from(routers))).up = False

    start = draw(st.sampled_from(routers + [HOST]))
    over_vn = draw(st.booleans())
    # Half the IPvN packets go where a host sends them: to the anycast
    # address.
    dst = draw(st.one_of(st.just(ANYCAST), st.sampled_from(destinations))
               if over_vn else st.sampled_from(destinations))
    outer = IPv4Header(net.node(start).ipv4, dst, draw(st.integers(1, 8)),
                       draw(st.sampled_from(["ip", "udp"])))
    if over_vn:
        packet = vn_packet(VNAddress(1),
                           draw(st.sampled_from([HOST_VN, VNAddress(2)])),
                           ttl=draw(st.integers(1, 8)))
        packet.encapsulate(outer)
    else:
        packet = Packet([outer])
    return engine, packet, start


def _toward(net, routers, owners):
    """Each router's first hop on a fewest-hops path to *owners* (a
    breadth-first search out from them); owners and unreached routers
    get none."""
    first_hop, frontier = {}, sorted(owners)
    seen = set(owners)
    while frontier:
        nxt = []
        for node_id in frontier:
            for link in net.node(node_id).links:
                other = link.other(node_id)
                if other in routers and other not in seen:
                    seen.add(other)
                    first_hop[other] = node_id
                    nxt.append(other)
        frontier = nxt
    return first_hop


def _row(prefix, next_hop):
    return FibEntry(prefix=prefix, next_hop=next_hop,
                    source=RouteSource.STATIC, local=next_hop is None)


def _run(walk, engine, packet, start, strict):
    trace = ForwardingTrace()
    try:
        walk(packet, engine.network.node(start), trace, strict, None)
    except ForwardingError as exc:
        return trace, (type(exc), str(exc))
    return trace, None


def _walks_agree(engine, packet, start, strict=False):
    """Walk *packet* from *start* with the engine and with the reference,
    a copy each, and compare everything both leave behind; the engine's
    trace and what it raised."""
    sent = packet.copy()
    trace, raised = _run(engine._walk, engine, packet, start, strict)
    expected, expected_raised = _run(
        lambda *args: reference_walk(engine, *args), engine, sent, start,
        strict)
    assert raised == expected_raised
    assert trace.to_dict() == expected.to_dict()
    assert trace._max_depth == expected._max_depth
    assert len(trace._log) == len(expected._log)
    log = expected._log
    for at, (got, want) in enumerate(zip(trace._log, log)):
        slot = at % 5
        if slot == 0 or (slot == 2 and log[at - 1] == "ipv4-forward"):
            assert got is want, at  # the node, and a hop's FIB entry
        else:
            assert type(got) is type(want) and got == want, at
    assert packet.headers == sent.headers
    assert [type(h) for h in packet.headers] == [type(h) for h in sent.headers]
    return trace, raised


# 200 examples under the ``ci`` profile, ×20 under ``deep``.
@settings(max_examples=2 * settings().max_examples)
@given(worlds(), st.booleans())
def test_segment_walk_equals_hop_by_hop_walk(world, strict):
    engine, packet, start = world
    trace, raised = _walks_agree(engine, packet, start, strict)
    event(trace.outcome.value)
    event(f"encapsulations={min(trace.encapsulations, 2)}")
    if not strict:
        assert raised is None


def _line(n, max_steps=64):
    """r0 - r1 - ... - r(n-1), every router routing r(n-1)'s address
    down the line, and an engine over it."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    for router in ROUTERS[:n]:
        net.add_router(router, 1)
    last = net.node(ROUTERS[n - 1]).ipv4
    for a, b in zip(ROUTERS[:n], ROUTERS[1:n]):
        net.add_link(a, b, delay=0.1)
        net.node(a).fib4.install(_row(Prefix.host(last), b))
    return ForwardingEngine(net, max_steps=max_steps), last


def test_a_segment_carries_every_header_field():
    """The segment writes its header back field by field: a field added
    later has no sample here, so this fails until it gets one."""
    engine, last = _line(3)
    samples = dict(src=ipv4("1.1.1.1"), dst=last, ttl=7, protocol="udp")
    assert set(samples) == set(IPv4Header._fields)
    for name, default in IPv4Header._field_defaults.items():
        assert samples[name] != default, f"{name} sample is the default"
    packet = Packet([IPv4Header(**samples)])
    trace, _ = _walks_agree(engine, packet, "r0")
    assert trace.delivered_to == "r2"
    assert packet.headers == [IPv4Header(**samples)._replace(ttl=5)]


def test_a_router_down_behind_a_live_link_drops_mid_segment():
    engine, last = _line(4)
    engine.network.node("r2").up = False
    packet = Packet([IPv4Header(ipv4("1.1.1.1"), last)])
    trace, _ = _walks_agree(engine, packet, "r0")
    assert trace.drop_reason == "node r2 is down"
    assert trace.physical_hops == 2 and trace.latency == 0.1 + 0.1
    assert packet.outer.ttl == 62


@pytest.mark.parametrize("strict", [False, True])
def test_max_steps_counts_every_hop_of_a_segment(strict):
    engine, last = _line(5, max_steps=3)
    packet = Packet([IPv4Header(ipv4("1.1.1.1"), last)])
    trace, raised = _walks_agree(engine, packet, "r0", strict)
    assert trace.drop_reason == "exceeded 3 steps"
    assert trace.physical_hops == 3
    assert raised == ((ForwardingLoopError, "exceeded 3 steps") if strict
                      else None)
