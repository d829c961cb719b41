"""Engine-level tests for the multicast walk (forks, vN-in-vN, stress)."""

import pytest

from repro.net import Domain, Network, Prefix, ReplicationError, ipv4
from repro.net.address import VNAddress
from repro.net.forwarding import (ForwardingEngine, Outcome, VnDeliver,
                                  VnEgress, VnEncap, VnForward, VnReplicate)
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import IPv4Header, VNHeader, vn_packet


def star_network(n_leaves=3):
    """hub router h with leaf routers l0..l(n-1); static /32 routes."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one", prefix=Prefix.parse("10.1.0.0/16")))
    hub = net.add_router("hub", 1)
    leaves = [net.add_router(f"l{i}", 1) for i in range(n_leaves)]
    for leaf in leaves:
        net.add_link("hub", leaf.node_id)
        hub.fib4.install(FibEntry(prefix=Prefix.host(leaf.ipv4),
                                  next_hop=leaf.node_id,
                                  source=RouteSource.STATIC))
        leaf.fib4.install(FibEntry(prefix=Prefix.host(hub.ipv4),
                                   next_hop="hub",
                                   source=RouteSource.STATIC))
    return net, hub, leaves


GROUP = VNAddress((1 << 62) | 7)


def arm(net, engine, handler):
    engine.register_vn_handler(8, handler)
    for node in net.nodes.values():
        if node.is_router:
            node.set_vn_state(8, object())


def route_hosts_via_leaves(net, hub):
    """Static hub routes to each host through its access leaf (no IGP)."""
    for node in net.nodes.values():
        if node.is_host:
            hub.fib4.install(FibEntry(prefix=Prefix.host(node.ipv4),
                                      next_hop=node.access_router,
                                      source=RouteSource.STATIC))


class TestReplication:
    def test_fork_delivers_to_all_hosts(self):
        net, hub, leaves = star_network(3)
        hosts = [net.add_host(f"h{i}", 1, leaf.node_id)
                 for i, leaf in enumerate(leaves)]
        for host in hosts:
            host.vn_groups.add(GROUP)
        engine = ForwardingEngine(net)
        route_hosts_via_leaves(net, hub)

        def handler(node, packet):
            if node.node_id == "hub":
                return VnReplicate(copies=tuple(
                    VnEgress(h.ipv4) for h in hosts), mark_downstream=True)
            return VnDeliver()

        arm(net, engine, handler)
        packet = vn_packet(VNAddress(1), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward_multicast(packet, "hub")
        assert trace.delivered_to == {h.node_id for h in hosts}
        assert trace.transmissions == 6  # 2 hops per copy
        assert len(trace.branches) == 4  # root + 3 copies

    def test_link_stress_counts_shared_links(self):
        net, hub, leaves = star_network(1)
        host_a = net.add_host("ha", 1, leaves[0].node_id)
        host_b = net.add_host("hb", 1, leaves[0].node_id)
        for host in (host_a, host_b):
            host.vn_groups.add(GROUP)
        engine = ForwardingEngine(net)
        route_hosts_via_leaves(net, hub)

        def handler(node, packet):
            return VnReplicate(copies=(VnEgress(host_a.ipv4),
                                       VnEgress(host_b.ipv4)),
                               mark_downstream=True)

        arm(net, engine, handler)
        packet = vn_packet(VNAddress(1), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward_multicast(packet, "hub")
        # Both copies cross the hub-l0 link: stress 2 there.
        assert trace.max_link_stress == 2

    def test_downstream_flag_stamped_once(self):
        net, hub, leaves = star_network(1)
        seen_flags = []

        def handler(node, packet):
            header = packet.outer
            seen_flags.append(header.mcast_downstream)
            if not header.mcast_downstream:
                return VnReplicate(copies=(VnForward(leaves[0].node_id),),
                                   mark_downstream=True)
            return VnDeliver()

        engine = ForwardingEngine(net)
        arm(net, engine, handler)
        packet = vn_packet(VNAddress(1), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward_multicast(packet, "hub")
        assert seen_flags == [False, True]
        assert trace.delivered_to == {leaves[0].node_id}

    def test_replicate_in_unicast_walk_drops(self):
        net, hub, leaves = star_network(1)
        engine = ForwardingEngine(net)

        def handler(node, packet):
            return VnReplicate(copies=(VnForward(leaves[0].node_id),))

        arm(net, engine, handler)
        packet = vn_packet(VNAddress(1), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward(packet, "hub")
        assert trace.outcome is Outcome.DROPPED
        assert "replication" in trace.drop_reason

    def test_replicate_in_unicast_walk_strict_raises(self):
        net, hub, leaves = star_network(1)
        engine = ForwardingEngine(net)
        arm(net, engine, lambda node, packet: VnReplicate(
            copies=(VnForward(leaves[0].node_id),)))
        packet = vn_packet(VNAddress(1), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        with pytest.raises(ReplicationError,
                           match="^replication at hub outside a multicast walk$"):
            engine.forward(packet, "hub", strict=True)


class TestVnInVn:
    def test_encap_then_deliver_decapsulates_and_continues(self):
        """A vN-in-vN tunnel (multicast register) unwraps at its
        destination and processing continues with the inner header."""
        net, hub, leaves = star_network(1)
        core = leaves[0]
        core_vn = VNAddress((1 << 32) | 1)
        host = net.add_host("h", 1, core.node_id)
        host.vn_groups.add(GROUP)

        def handler(node, packet):
            header = packet.outer
            if header.dst == core_vn:
                # Only the core answers to the core's vN address (the
                # real handler compares against its OWN address).
                if node.node_id == core.node_id:
                    return VnDeliver()  # depth > 1: engine unwraps
                return VnForward(core.node_id)
            if node.node_id == "hub":
                # Register phase: tunnel the group packet to the core.
                return VnEncap(VNHeader(src=VNAddress(2), dst=core_vn))
            return VnReplicate(copies=(VnEgress(host.ipv4),),
                               mark_downstream=True)

        engine = ForwardingEngine(net)
        arm(net, engine, handler)
        packet = vn_packet(VNAddress(2), GROUP)
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward_multicast(packet, "hub")
        # hub: decap -> group -> VnEncap(core) -> VnForward tunnel ->
        # core: unwrap register -> group header -> replicate -> host.
        assert trace.delivered_to == {host.node_id}
        decaps = [hop for branch in trace.branches for hop in branch.hops
                  if hop.action == "vn-decap"]
        assert decaps, "register tunnel must be unwrapped at the core"

    def test_vn_decap_recorded(self):
        """VnDeliver with stacked vN headers records a vn-decap hop."""
        net, hub, leaves = star_network(1)
        inner_dst = VNAddress((1 << 32) | 9)

        def handler(node, packet):
            return VnDeliver()

        engine = ForwardingEngine(net)
        arm(net, engine, handler)
        packet = vn_packet(VNAddress(1), inner_dst)
        packet.encapsulate(VNHeader(src=VNAddress(1), dst=VNAddress(5)))
        packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
        trace = engine.forward(packet, "hub")
        actions = [h.action for h in trace.hops]
        assert "vn-decap" in actions
        assert trace.outcome is Outcome.DELIVERED
