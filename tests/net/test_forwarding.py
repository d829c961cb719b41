"""Unit tests for the forwarding engine."""

import pytest

from repro.net import (Domain, ForwardingLoopError, Network, NoRouteError,
                       NotVnDestinationError, NoVnHandlerError, Outcome,
                       Prefix, TTLExpiredError, ipv4, ipv4_packet, vn_packet)
from repro.net.address import VNAddress
from repro.net.forwarding import ForwardingEngine, VnDeliver, VnDrop
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import IPv4Header


def line_network(n=3):
    """r0 - r1 - ... - r(n-1), static routes in both directions."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one", prefix=Prefix.parse("10.1.0.0/16")))
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


class TestIPv4Forwarding:
    def test_delivery(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4)
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.DELIVERED
        assert trace.delivered_to == "r2"
        assert trace.physical_hops == 2
        assert trace.node_path() == ["r0", "r1", "r2"]

    def test_no_route(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, ipv4("99.0.0.1"))
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.NO_ROUTE

    def test_no_route_strict_raises(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, ipv4("99.0.0.1"))
        with pytest.raises(NoRouteError):
            engine.forward(packet, "r0", strict=True)

    def test_ttl_expiry(self):
        net = line_network(4)
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r3").ipv4, ttl=2)
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.TTL_EXPIRED

    def test_ttl_expiry_strict_raises(self):
        net = line_network(4)
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r3").ipv4, ttl=1)
        with pytest.raises(TTLExpiredError):
            engine.forward(packet, "r0", strict=True)

    def test_down_link_drops(self):
        net = line_network()
        net.link_between("r0", "r1").fail()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4)
        trace = engine.forward(packet, "r0")
        # A FIB entry pointing over a dead link is a fault drop, not a
        # missing route: the distinction feeds the transient-loss
        # counters of the fault-injection subsystem.
        assert trace.outcome is Outcome.FAULT_DROPPED
        assert trace.faulted
        assert "link r0<->r1 is down" in trace.drop_reason

    def test_crashed_node_drops(self):
        net = line_network()
        net.crash_node("r1")
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4)
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.FAULT_DROPPED
        assert trace.faulted

    def test_routing_loop_detected(self):
        net = line_network(2)
        target = ipv4("99.0.0.1")
        net.node("r0").fib4.install(FibEntry(prefix=Prefix.host(target),
                                             next_hop="r1",
                                             source=RouteSource.STATIC))
        net.node("r1").fib4.install(FibEntry(prefix=Prefix.host(target),
                                             next_hop="r0",
                                             source=RouteSource.STATIC))
        engine = ForwardingEngine(net, max_steps=64)
        packet = ipv4_packet(net.node("r0").ipv4, target, ttl=1000)
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.LOOP

    def test_loop_strict_raises(self):
        net = line_network(2)
        target = ipv4("99.0.0.1")
        for a, b in (("r0", "r1"), ("r1", "r0")):
            net.node(a).fib4.install(FibEntry(prefix=Prefix.host(target),
                                              next_hop=b,
                                              source=RouteSource.STATIC))
        engine = ForwardingEngine(net, max_steps=16)
        with pytest.raises(ForwardingLoopError):
            engine.forward(ipv4_packet(net.node("r0").ipv4, target, ttl=1000),
                           "r0", strict=True)


class TestLocalDeliveryAndDecap:
    def test_anycast_local_address_accepts(self):
        net = line_network()
        anycast = ipv4("240.0.0.1")
        net.node("r2").add_local_ipv4(anycast)
        for i in range(2):
            net.node(f"r{i}").fib4.install(FibEntry(
                prefix=Prefix.host(anycast), next_hop=f"r{i+1}",
                source=RouteSource.STATIC))
        engine = ForwardingEngine(net)
        trace = engine.forward(ipv4_packet(net.node("r0").ipv4, anycast), "r0")
        assert trace.delivered_to == "r2"

    def test_decap_reveals_vn_and_drops_without_handler(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = vn_packet(VNAddress(1), VNAddress(2))
        from repro.net.packet import IPv4Header

        packet.encapsulate(IPv4Header(src=net.node("r0").ipv4,
                                      dst=net.node("r2").ipv4))
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.NO_VN_HANDLER
        assert trace.decapsulations == 1

    def test_vn_handler_deliver(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.register_vn_handler(8, lambda node, packet: VnDeliver())
        net.node("r2").set_vn_state(8, object())  # non-None marks capability
        packet = vn_packet(VNAddress(1), VNAddress(2))
        from repro.net.packet import IPv4Header

        packet.encapsulate(IPv4Header(src=net.node("r0").ipv4,
                                      dst=net.node("r2").ipv4))
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.DELIVERED
        assert trace.ingress_router == "r2"

    def test_vn_handler_drop(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.register_vn_handler(8, lambda node, packet: VnDrop("policy"))
        net.node("r2").set_vn_state(8, object())
        packet = vn_packet(VNAddress(1), VNAddress(2))
        from repro.net.packet import IPv4Header

        packet.encapsulate(IPv4Header(src=net.node("r0").ipv4,
                                      dst=net.node("r2").ipv4))
        trace = engine.forward(packet, "r0")
        assert trace.outcome is Outcome.DROPPED
        assert trace.drop_reason == "policy"

    def test_host_receives_vn_packet_for_its_address(self):
        net = line_network()
        host = net.add_host("h", 1, "r2")
        address = VNAddress.self_assigned(host.ipv4, version=8)
        host.assign_vn_address(address)
        packet = vn_packet(VNAddress(1), address)
        from repro.net.packet import IPv4Header

        packet.encapsulate(IPv4Header(src=net.node("r2").ipv4, dst=host.ipv4))
        engine = ForwardingEngine(net)
        trace = engine.forward(packet, "r2")
        assert trace.delivered_to == "h"

    def test_host_drops_foreign_vn_packet(self):
        net = line_network()
        host = net.add_host("h", 1, "r2")
        host.assign_vn_address(VNAddress.self_assigned(host.ipv4, version=8))
        packet = vn_packet(VNAddress(1), VNAddress(2))  # not the host's address
        from repro.net.packet import IPv4Header

        packet.encapsulate(IPv4Header(src=net.node("r2").ipv4, dst=host.ipv4))
        engine = ForwardingEngine(net)
        trace = engine.forward(packet, "r2")
        assert trace.outcome is Outcome.DROPPED


class TestStrictVnDrops:
    """``strict=True`` raises on every vN routing failure, each with its
    own ``ForwardingError`` subclass, worded like the drop reason."""

    def test_no_vn_handler_raises(self):
        net = line_network()
        packet = vn_packet(VNAddress(1), VNAddress(2))
        packet.encapsulate(IPv4Header(src=net.node("r0").ipv4,
                                      dst=net.node("r2").ipv4))
        with pytest.raises(NoVnHandlerError, match="^r2 cannot process IPv8$"):
            ForwardingEngine(net).forward(packet, "r0", strict=True)

    def test_router_without_vn_state_raises(self):
        net = line_network()
        engine = ForwardingEngine(net)
        engine.register_vn_handler(8, lambda node, packet: VnDeliver())
        packet = vn_packet(VNAddress(1), VNAddress(2))
        packet.encapsulate(IPv4Header(src=net.node("r0").ipv4,
                                      dst=net.node("r2").ipv4))
        with pytest.raises(NoVnHandlerError):
            engine.forward(packet, "r0", strict=True)

    def test_host_not_vn_destination_raises(self):
        net = line_network()
        host = net.add_host("h", 1, "r2")
        host.assign_vn_address(VNAddress.self_assigned(host.ipv4, version=8))
        packet = vn_packet(VNAddress(1), VNAddress(2))
        packet.encapsulate(IPv4Header(src=net.node("r2").ipv4, dst=host.ipv4))
        with pytest.raises(NotVnDestinationError, match="^host h is not IPv8 "):
            ForwardingEngine(net).forward(packet, "r2", strict=True)


class TestTraceAccounting:
    def test_domain_path_collapses_repeats(self):
        net = line_network()
        engine = ForwardingEngine(net)
        packet = ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4)
        trace = engine.forward(packet, "r0")
        assert trace.domain_path() == [1]

    def test_str_contains_outcome(self):
        net = line_network()
        engine = ForwardingEngine(net)
        trace = engine.forward(
            ipv4_packet(net.node("r0").ipv4, net.node("r2").ipv4), "r0")
        assert "delivered" in str(trace)

    def test_ipv4_forward_detail_is_next_hop_and_prefix(self):
        # The hop detail is built from the cached Prefix.sort_key(); it
        # must stay byte-equal to the f-string over the prefix itself.
        net = line_network(4)
        dst = net.node("r3").ipv4
        trace = ForwardingEngine(net).forward(
            ipv4_packet(net.node("r0").ipv4, dst), "r0")
        forwards = [hop for hop in trace.hops if hop.action == "ipv4-forward"]
        assert [hop.node_id for hop in forwards] == ["r0", "r1", "r2"]
        for hop in forwards:
            entry = net.node(hop.node_id).fib4.lookup(dst)
            assert hop.detail == f"-> {entry.next_hop} ({entry.prefix})"
        assert forwards[0].detail == f"-> r1 ({dst}/32)"
