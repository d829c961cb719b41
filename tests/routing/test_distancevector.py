"""Unit tests for the distance-vector IGP and its anycast extension."""

import pytest

from repro.net import Domain, EventScheduler, Network, Prefix, ipv4, ipv4_packet
from repro.net.errors import RoutingError
from repro.net.forwarding import ForwardingEngine, Outcome
from repro.routing.distancevector import INFINITY, DistanceVectorRouting


def line_domain(n=4):
    net = Network()
    net.add_domain(Domain(asn=1, name="one", prefix=Prefix.parse("10.1.0.0/16")))
    for i in range(n):
        net.add_router(f"r{i}", 1)
    for i in range(n - 1):
        net.add_link(f"r{i}", f"r{i+1}", cost=1)
    return net


def converge(net):
    sched = EventScheduler()
    igp = DistanceVectorRouting(net, net.domains[1], sched)
    igp.converge()
    return igp, sched


class TestUnicast:
    def test_all_pairs_reachable(self):
        net = line_domain()
        converge(net)
        engine = ForwardingEngine(net)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                trace = engine.forward(ipv4_packet(net.node(f"r{i}").ipv4,
                                                   net.node(f"r{j}").ipv4), f"r{i}")
                assert trace.outcome is Outcome.DELIVERED

    def test_metrics_accumulate_hop_costs(self):
        net = line_domain()
        igp, _ = converge(net)
        route = igp.table("r0")[Prefix.host(net.node("r3").ipv4)]
        assert route == (3.0, "r1")

    def test_link_failure_reroutes_via_ring(self):
        net = line_domain(4)
        net.add_link("r3", "r0", cost=1)  # close the ring
        igp, sched = converge(net)
        entry = net.node("r0").fib4.lookup(net.node("r1").ipv4)
        assert entry is not None and entry.next_hop == "r1"
        net.link_between("r0", "r1").fail()
        igp.refresh()
        sched.run_until_idle()
        igp.install_routes()
        entry = net.node("r0").fib4.lookup(net.node("r1").ipv4)
        assert entry is not None and entry.next_hop == "r3"
        assert entry.metric == 3.0

    def test_refresh_after_a_partition_rewrites_nothing(self):
        net = line_domain(2)
        igp, sched = converge(net)
        net.link_between("r0", "r1").fail()

        def reconverge():
            igp.refresh()
            sched.run_until_idle()
            igp.install_routes()

        reconverge()
        written, version = igp.routers_written, net.forwarding_version
        reconverge()  # finds every dead route already poisoned
        assert igp.routers_written == written
        assert net.forwarding_version == version

    def test_host_routes_propagate(self):
        net = line_domain()
        net.add_host("h", 1, "r3")
        converge(net)
        engine = ForwardingEngine(net)
        trace = engine.forward(ipv4_packet(net.node("r0").ipv4,
                                           net.node("h").ipv4), "r0")
        assert trace.delivered_to == "h"


class TestAnycastExtension:
    def test_zero_distance_advertisement(self):
        """The paper: an IPvN router advertises distance 0 to its
        anycast address; DV then finds everyone's closest member."""
        net = line_domain(5)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        for member in ("r0", "r4"):
            net.node(member).add_local_ipv4(anycast)
            igp.advertise_anycast(member, anycast)
        igp.converge()
        engine = ForwardingEngine(net)
        assert engine.forward(ipv4_packet(net.node("r1").ipv4, anycast),
                              "r1").delivered_to == "r0"
        assert engine.forward(ipv4_packet(net.node("r3").ipv4, anycast),
                              "r3").delivered_to == "r4"

    def test_member_metric_is_distance_to_member(self):
        net = line_domain(5)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        igp.advertise_anycast("r4", anycast)
        igp.converge()
        assert igp.route_to("r0", anycast) == (4.0, "r1")
        assert igp.route_to("r4", anycast) == (0.0, None)

    def test_withdrawal_poisons_route(self):
        net = line_domain(3)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        igp.advertise_anycast("r2", anycast)
        igp.converge()
        assert igp.route_to("r0", anycast) is not None
        igp.withdraw_anycast("r2", anycast)
        sched.run_until_idle()
        igp.install_routes()
        assert igp.route_to("r0", anycast) is None
        assert net.node("r0").fib4.lookup(anycast) is None

    def test_no_member_discovery(self):
        net = line_domain(3)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        igp.converge()
        assert DistanceVectorRouting.supports_member_discovery is False
        with pytest.raises(RoutingError):
            igp.member_directory(ipv4("240.0.0.1"))


class TestProtocolMechanics:
    def test_poison_reverse_in_vectors(self):
        """A router never offers a route back to its own next hop."""
        net = line_domain(3)
        igp, sched = converge(net)
        # r1's route to r0's loopback has next hop r0; the vector r1
        # sends to r0 must poison it (advertise INFINITY).
        table = igp.table("r1")
        r0_prefix = Prefix.host(net.node("r0").ipv4)
        assert table[r0_prefix][1] == "r0"
        vector = {}
        for pfx, route in igp._tables["r1"].items():
            vector[pfx] = INFINITY if route.next_hop == "r0" else route.metric
        assert vector[r0_prefix] == INFINITY

    def test_update_coalescing(self):
        net = line_domain(3)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        igp._schedule_update("r0")
        igp._schedule_update("r0")
        assert len(sched) == 1

    def test_counting_converges_with_budget(self):
        net = line_domain(6)
        igp, _ = converge(net)
        assert igp.stats.sent > 0

    def test_messages_ignored_after_link_failure(self):
        net = line_domain(3)
        sched = EventScheduler()
        igp = DistanceVectorRouting(net, net.domains[1], sched)
        igp.start()
        # Fail the link while updates are in flight: deliveries over the
        # dead link are discarded, and convergence still completes.
        net.link_between("r1", "r2").fail()
        igp.converge()
        assert igp.route_to("r0", net.node("r2").ipv4) is None
