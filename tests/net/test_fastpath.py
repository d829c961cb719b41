"""Unit tests for the flow-level forwarding fast path.

The engine-level contract: repeated identical pure-IPv4 sends within a
quiescent topology version replay the cached trace; any forwarding
state change (link/node liveness, explicit ``bump()``) or fault epoch
(``pause()``/``resume()``) drops back to the slow path.
"""

import pytest

from repro.net import Domain, Network, Outcome, Prefix, ipv4, ipv4_packet
from repro.net.address import VNAddress
from repro.net.errors import ForwardingError
from repro.net.fastpath import FlowFastPath
from repro.net.forwarding import ForwardingEngine
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import vn_packet


def line_network(n=3):
    """r0 - r1 - ... - r(n-1), static routes in both directions."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    for i in range(n):
        net.add_router(f"r{i}", 1)
    for i in range(n - 1):
        net.add_link(f"r{i}", f"r{i+1}")
    last = net.node(f"r{n-1}")
    first = net.node("r0")
    for i in range(n - 1):
        net.node(f"r{i}").fib4.install(FibEntry(
            prefix=Prefix.host(last.ipv4), next_hop=f"r{i+1}",
            source=RouteSource.STATIC))
        net.node(f"r{i+1}").fib4.install(FibEntry(
            prefix=Prefix.host(first.ipv4), next_hop=f"r{i}",
            source=RouteSource.STATIC))
    return net


def _packet(net):
    return ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4)


class TestFlowReplay:
    def test_repeat_send_hits_and_replays_same_trace(self):
        net = line_network()
        engine = ForwardingEngine(net)
        first = engine.forward(_packet(net), "r0")
        second = engine.forward(_packet(net), "r0")
        assert first.outcome is Outcome.DELIVERED
        assert second is first  # replayed, not re-walked
        assert engine.fastpath.stats()["hits"] == 1
        assert engine.fastpath.stats()["packets_aggregated"] == 2

    def test_flow_counts_key_on_start_and_header(self):
        net = line_network()
        engine = ForwardingEngine(net)
        for _ in range(3):
            engine.forward(_packet(net), "r0")
        key = engine.fastpath.key_for(_packet(net), "r0")
        assert engine.fastpath.flow_counts[key] == 3

    def test_different_ttl_is_a_different_flow(self):
        net = line_network()
        engine = ForwardingEngine(net)
        dst = net.node("r2").ipv4
        engine.forward(ipv4_packet(net.node("r0").ipv4, dst, ttl=64), "r0")
        engine.forward(ipv4_packet(net.node("r0").ipv4, dst, ttl=32), "r0")
        assert engine.fastpath.hits == 0
        assert len(engine.fastpath) == 2

    def test_undelivered_walks_are_never_cached(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, ipv4("99.0.0.1"))
        assert engine.forward(packet, "r0").outcome is Outcome.NO_ROUTE
        assert engine.forward(packet, "r0").outcome is Outcome.NO_ROUTE
        assert engine.fastpath.hits == 0
        assert len(engine.fastpath) == 0

    def test_vn_packets_are_not_fast_pathable(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = vn_packet(VNAddress(1, version=8), VNAddress(2, version=8))
        assert engine.fastpath.key_for(packet, "r0") is None


class TestInvalidation:
    def test_link_state_change_invalidates(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.forward(_packet(net), "r0")
        assert len(engine.fastpath) == 1
        net.link_between("r1", "r2").fail()
        # Next lookup sees the moved topology version and re-walks.
        trace = engine.forward(_packet(net), "r0")
        assert trace.outcome is not Outcome.DELIVERED
        assert engine.fastpath.hits == 0
        assert engine.fastpath.invalidations == 1

    def test_bump_drops_cached_flows(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.forward(_packet(net), "r0")
        engine.fastpath.bump()
        assert len(engine.fastpath) == 0
        engine.forward(_packet(net), "r0")
        assert engine.fastpath.hits == 0

    def test_bump_on_empty_cache_is_not_an_invalidation(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.fastpath.bump()
        assert engine.fastpath.invalidations == 0


class TestPauseResume:
    def test_paused_fastpath_neither_serves_nor_stores(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.forward(_packet(net), "r0")
        engine.fastpath.pause()
        assert not engine.fastpath.active
        assert len(engine.fastpath) == 0  # pause flushed the cache
        engine.forward(_packet(net), "r0")
        assert engine.fastpath.hits == 0
        assert len(engine.fastpath) == 0  # nothing stored while paused
        engine.fastpath.resume()
        engine.forward(_packet(net), "r0")
        engine.forward(_packet(net), "r0")
        assert engine.fastpath.hits == 1

    def test_pause_nests(self):
        fastpath = FlowFastPath(line_network())
        fastpath.pause()
        fastpath.pause()
        fastpath.resume()
        assert fastpath.paused
        fastpath.resume()
        assert not fastpath.paused

    def test_resume_without_pause_raises(self):
        fastpath = FlowFastPath(line_network())
        with pytest.raises(ForwardingError):
            fastpath.resume()

