"""Unit tests for the flow-level forwarding fast path.

The engine-level contract: repeated sends of an identical header stack
from the same node, while forwarding state holds, replay the stored
trace — plain IPv4 and encapsulated IPvN alike; any change of forwarding
state moves ``Network.forwarding_version`` by itself (no call site tells
the fast path), the stored flows drop at the next lookup, and the next
packet walks again.  A change that cannot alter a stored walk keeps them.
"""

import pytest

from repro.anycast import DefaultRootedAnycast
from repro.net import Domain, Network, Outcome, Prefix, ipv4, ipv4_packet
from repro.net.address import VNAddress
from repro.net.forwarding import ForwardingEngine, VnDeliver, VnDrop
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import IPv4Header, Packet, VNHeader, vn_packet
from repro.vnbone import VnDeployment
from repro.vnbone.state import VnAction, VnFibEntry
from repro.vnbone.multicast import enable_multicast


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
        engine.forward(_packet(net), "r1")  # same header, other start
        stats = engine.fastpath.stats()
        assert (stats["flows"], stats["hits"]) == (2, 2)
        assert stats["packets_aggregated"] == 4

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


@pytest.fixture
def deployment(converged_hub):
    """IPv8 in the hub AS only: ``hx`` and ``hz`` are self-addressed
    hosts of non-adopting stubs, so a send between them is the paper's
    headline path (encapsulate to A_N, cross the vN-Bone, egress)."""
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=1)
    deployment = VnDeployment(converged_hub, scheme, version=8)
    deployment.deploy(1)
    deployment.rebuild()
    return deployment


def _fastpath(deployment):
    return deployment.orchestrator.engine.fastpath


class TestVnFlows:
    def test_repeated_vn_send_hits_and_replays_same_trace(self, deployment):
        first = deployment.send("hx", "hz")
        second = deployment.send("hx", "hz")
        assert first.delivered_to == "hz"
        assert first.encapsulations and first.decapsulations
        assert first.egress_router is not None
        assert second is first  # replayed, not re-walked
        assert _fastpath(deployment).hits == 1
        assert _fastpath(deployment).stats()["packets_aggregated"] == 2

    def test_inner_ttl_option_and_flag_are_part_of_the_flow(self, deployment):
        network = deployment.network
        src, dst = network.node("hx"), network.node("hz")
        outer = IPv4Header(src=src.ipv4, dst=deployment.scheme.address)
        base = dict(src=deployment.plan.ensure_host_address("hx"),
                    dst=deployment.plan.ensure_host_address("hz"))
        inners = [VNHeader(**base),
                  VNHeader(**base, ttl=32),
                  VNHeader(**base, dest_ipv4=dst.ipv4),
                  VNHeader(**base, mcast_downstream=True)]
        engine = deployment.orchestrator.engine
        for inner in inners:
            trace = engine.forward(Packet(headers=[inner, outer]), "hx")
            assert trace.delivered_to == "hz"
        assert engine.fastpath.hits == 0
        assert len(engine.fastpath) == len(inners)

    def test_undelivered_vn_walks_are_never_stored(self, deployment):
        for _ in range(2):
            trace = deployment.send("hx", "hz", ttl=1)
            assert trace.outcome is Outcome.TTL_EXPIRED
            assert trace.decapsulations  # it died inside the vN-Bone
        assert _fastpath(deployment).hits == 0
        assert len(_fastpath(deployment)) == 0

    def test_faulted_vn_walks_are_never_stored(self, deployment):
        path = deployment.send("hx", "hz").node_path()
        deployment.network.link_between(path[-2], path[-1]).fail()
        for _ in range(2):
            trace = deployment.send("hx", "hz")
            assert trace.outcome is Outcome.FAULT_DROPPED and trace.faulted
        assert _fastpath(deployment).hits == 0
        assert len(_fastpath(deployment)) == 0


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

    def test_fib_install_is_seen(self):
        net = line_network()
        engine = ForwardingEngine(net)
        assert engine.forward(_packet(net), "r0").delivered_to == "r2"
        net.node("r1").fib4.install(FibEntry(
            prefix=Prefix.host(net.node("r2").ipv4), next_hop=None,
            source=RouteSource.CONNECTED, local=True))  # a blackhole
        assert engine.forward(_packet(net), "r0").outcome is Outcome.NO_ROUTE

    def test_fib_withdraw_is_seen(self):
        net = line_network()
        engine = ForwardingEngine(net)
        assert engine.forward(_packet(net), "r0").delivered_to == "r2"
        net.node("r1").fib4.withdraw(Prefix.host(net.node("r2").ipv4),
                                     RouteSource.STATIC)
        assert engine.forward(_packet(net), "r0").outcome is Outcome.NO_ROUTE

    def test_local_addresses_are_seen(self):
        net = line_network()
        engine = ForwardingEngine(net)
        r1, target = net.node("r1"), net.node("r2").ipv4
        assert engine.forward(_packet(net), "r0").delivered_to == "r2"
        r1.add_local_ipv4(target)
        assert engine.forward(_packet(net), "r0").delivered_to == "r1"
        r1.remove_local_ipv4(target)
        assert engine.forward(_packet(net), "r0").delivered_to == "r2"

    def test_vn_state_is_seen(self):
        net = line_network()
        engine = ForwardingEngine(net)
        # The handler answers whatever decision the router's state is.
        engine.register_vn_handler(8, lambda node, packet: node.vn_state_for(8))
        r0 = net.node("r0")
        packet = vn_packet(VNAddress(1), VNAddress(2))
        r0.set_vn_state(8, VnDeliver())
        assert engine.forward(packet.copy(), "r0").delivered_to == "r0"
        r0.clear_vn_state(8)
        trace = engine.forward(packet.copy(), "r0")
        assert trace.outcome is Outcome.NO_VN_HANDLER
        r0.set_vn_state(8, VnDeliver())
        assert engine.forward(packet.copy(), "r0").delivered_to == "r0"
        r0.set_vn_state(8, VnDrop("replaced"))
        assert engine.forward(packet.copy(), "r0").outcome is Outcome.DROPPED

    def test_a_change_on_an_empty_table_is_not_an_invalidation(self):
        net = line_network()
        engine = ForwardingEngine(net)
        net.link_between("r0", "r1").fail()
        engine.forward(_packet(net), "r0")
        assert engine.fastpath.invalidations == 0


class TestInvalidationSites:
    """State a stored walk read changes through a public call, and the
    next send sees it; a change no stored walk read keeps the table."""

    def test_register_vn_handler(self):
        net = line_network()
        net.node("r0").set_vn_state(8, object())
        engine = ForwardingEngine(net)
        packet = vn_packet(VNAddress(1), VNAddress(2))
        engine.register_vn_handler(8, lambda node, packet: VnDeliver())
        assert engine.forward(packet.copy(), "r0").delivered_to == "r0"
        engine.register_vn_handler(8, lambda node, packet: VnDrop("refused"))
        assert engine.forward(packet.copy(), "r0").outcome is Outcome.DROPPED

    def test_orchestrator_converge(self, converged_hub):
        net, engine = converged_hub.network, converged_hub.engine
        packet = ipv4_packet(net.node("hx").ipv4, net.node("hz").ipv4)
        assert engine.forward(packet.copy(), "hx").delivered_to == "hz"
        # Z stops originating its block; nothing bumps until the FIBs
        # are reinstalled by a second full convergence.
        converged_hub.bgp.withdraw(4, net.domains[4].prefix)
        converged_hub.converge()
        assert engine.forward(packet.copy(), "hx").outcome is Outcome.NO_ROUTE

    def test_deploy_relabels_hosts(self, deployment):
        # x1 already serves A_N on its own, so deploy()'s add_member is
        # a no-op and hx's relabel is the change the replay must see.
        deployment.scheme.add_member("x1")
        deployment.orchestrator.reconverge()
        network, engine = deployment.network, deployment.orchestrator.engine
        outer = IPv4Header(src=network.node("hz").ipv4,
                           dst=deployment.scheme.address)
        inner = VNHeader(src=deployment.plan.ensure_host_address("hz"),
                         dst=deployment.plan.ensure_host_address("hx"))
        arriving = Packet(headers=[inner, outer])
        assert engine.forward(arriving.copy(), "hz").delivered_to == "hx"
        deployment.deploy(2, router_ids={"x1"})  # hx gets a native address
        assert engine.forward(arriving.copy(), "hz").outcome is Outcome.DROPPED

    def test_anycast_add_member(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=1)
        scheme.add_member("w2")
        converged_hub.reconverge()
        path = scheme.probe("hx").node_path()
        assert path[-2:] == ["w1", "w2"]
        # w1 accepts A_N from here on, before any route is reinstalled.
        scheme.add_member("w1")
        assert scheme.resolve("hx") == "w1"

    def test_anycast_remove_member(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=1)
        scheme.add_member("w1")
        scheme.add_member("w2")
        converged_hub.reconverge()
        assert scheme.resolve("hx") == "w1"
        scheme.remove_member("w1")
        assert scheme.resolve("hx") != "w1"

    def test_multicast_leave(self, deployment):
        service = enable_multicast(deployment)
        group = service.create_group()
        service.join(group, "hz")
        engine = deployment.orchestrator.engine
        arriving = vn_packet(deployment.plan.ensure_host_address("hx"), group)
        assert engine.forward(arriving.copy(), "hz").delivered_to == "hz"
        assert engine.forward(arriving.copy(), "hz").delivered_to == "hz"
        assert engine.fastpath.hits == 1
        service.leave(group, "hz")
        assert engine.forward(arriving.copy(), "hz").outcome is Outcome.DROPPED

    def test_multicast_join(self, deployment):
        service = enable_multicast(deployment)
        group = service.create_group()
        first = deployment.send("hx", "hz")
        service.join(group, "hz")  # can only turn a drop into a delivery
        assert deployment.send("hx", "hz") is first

    def test_vn_fib_rows_are_seen(self, deployment):
        ingress = deployment.send("hx", "hz").ingress_router
        fib = deployment.state_of(ingress).fib
        row = Prefix.host(deployment.plan.address_of("hz"))
        fib.write(row, VnAction.LOCAL, None, None, 0.0, "test")
        assert deployment.send("hx", "hz").delivered_to == ingress
        fib.retain([entry.prefix for entry in fib.entries()
                    if entry.prefix != row])
        assert deployment.send("hx", "hz").delivered_to == "hz"
        fib.install(VnFibEntry(prefix=row, action=VnAction.LOCAL))
        assert deployment.send("hx", "hz").delivered_to == ingress
        assert fib.remove([row]) == 1
        assert deployment.send("hx", "hz").delivered_to == "hz"

    def test_host_relabel_is_seen(self, deployment):
        assert deployment.send("hx", "hz").delivered_to == "hz"
        hz = deployment.network.node("hz")
        # A new address the plan (and so the sender) does not know yet.
        hz.assign_vn_address(VNAddress((4 << 32) | 1, version=8))
        assert deployment.send("hx", "hz").outcome is Outcome.DROPPED

    def test_noop_rebuild_keeps_the_table(self, deployment):
        first = deployment.send("hx", "hz")
        deployment.rebuild()
        assert deployment.send("hx", "hz") is first
        assert _fastpath(deployment).invalidations == 0

    def test_first_send_from_a_fresh_host_keeps_stored_flows(self, deployment):
        network, engine = deployment.network, deployment.orchestrator.engine
        packet = ipv4_packet(network.node("hx").ipv4, network.node("hz").ipv4)
        first = engine.forward(packet.copy(), "hx")
        assert deployment.plan.address_of("hx") is None
        deployment.send("hx", "hz")  # both hosts get their first address
        assert engine.forward(packet.copy(), "hx") is first

