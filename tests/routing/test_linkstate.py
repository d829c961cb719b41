"""Unit tests for the link-state IGP and its anycast extension."""

import pytest

from repro.net import Domain, EventScheduler, Network, Prefix, ipv4, ipv4_packet
from repro.net.forwarding import ForwardingEngine, Outcome
from repro.routing.igp import ANYCAST_STUB_COST
from repro.routing.linkstate import LinkStateRouting
from repro.net.errors import RoutingError

from tests.conftest import igp_distance


def square_domain():
    """a - b
       |   |
       d - c   with a-b cheap ring; plus a host on d."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one", prefix=Prefix.parse("10.1.0.0/16")))
    for name in "abcd":
        net.add_router(name, 1)
    net.add_link("a", "b", cost=1)
    net.add_link("b", "c", cost=1)
    net.add_link("c", "d", cost=1)
    net.add_link("d", "a", cost=1)
    net.add_host("h", 1, "d")
    return net


def converge(net):
    sched = EventScheduler()
    igp = LinkStateRouting(net, net.domains[1], sched)
    igp.converge()
    return igp, sched


class TestUnicastRoutes:
    def test_all_pairs_reachable(self):
        net = square_domain()
        converge(net)
        engine = ForwardingEngine(net)
        for src in "abcd":
            for dst in "abcd":
                if src == dst:
                    continue
                trace = engine.forward(
                    ipv4_packet(net.node(src).ipv4, net.node(dst).ipv4), src)
                assert trace.outcome is Outcome.DELIVERED, (src, dst, trace)

    def test_host_prefix_distributed(self):
        net = square_domain()
        converge(net)
        engine = ForwardingEngine(net)
        trace = engine.forward(
            ipv4_packet(net.node("b").ipv4, net.node("h").ipv4), "b")
        assert trace.delivered_to == "h"

    def test_shortest_path_chosen(self):
        net = square_domain()
        converge(net)
        entry = net.node("a").fib4.lookup(net.node("b").ipv4)
        assert entry is not None and entry.next_hop == "b"
        assert entry.metric == 1.0

    def test_routes_follow_link_failure_after_refresh(self):
        net = square_domain()
        igp, sched = converge(net)
        net.link_between("a", "b").fail()
        igp.refresh()
        sched.run_until_idle()
        igp.install_routes()
        entry = net.node("a").fib4.lookup(net.node("b").ipv4)
        assert entry is not None and entry.next_hop == "d"
        assert entry.metric == 3.0

    def test_partition_leaves_no_route(self):
        net = square_domain()
        igp, sched = converge(net)
        net.link_between("a", "b").fail()
        net.link_between("d", "a").fail()
        igp.refresh()
        sched.run_until_idle()
        igp.install_routes()
        assert net.node("a").fib4.lookup(net.node("c").ipv4) is None


class TestAnycastExtension:
    def test_closest_member_wins(self):
        net = square_domain()
        sched = EventScheduler()
        igp = LinkStateRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        for member in ("b", "d"):
            net.node(member).add_local_ipv4(anycast)
            igp.advertise_anycast(member, anycast)
        igp.converge()
        engine = ForwardingEngine(net)
        trace = engine.forward(ipv4_packet(net.node("a").ipv4, anycast), "a")
        # a is equidistant from b and d; deterministic tie-break picks one.
        assert trace.delivered_to in ("b", "d")
        trace_c = engine.forward(ipv4_packet(net.node("c").ipv4, anycast), "c")
        assert trace_c.delivered_to in ("b", "d")
        assert trace_c.physical_hops == 1

    def test_uniform_stub_cost_does_not_change_selection(self):
        net = square_domain()
        sched = EventScheduler()
        igp = LinkStateRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        net.node("b").add_local_ipv4(anycast)
        igp.advertise_anycast("b", anycast, cost=ANYCAST_STUB_COST)
        igp.converge()
        entry = net.node("a").fib4.lookup(anycast)
        assert entry is not None and entry.next_hop == "b"
        assert entry.metric == 1.0 + ANYCAST_STUB_COST

    def test_member_directory_from_lsdb(self):
        net = square_domain()
        sched = EventScheduler()
        igp = LinkStateRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        igp.advertise_anycast("b", anycast)
        igp.advertise_anycast("c", anycast)
        igp.converge()
        assert igp.member_directory(anycast) == {"b", "c"}
        assert igp.member_directory(anycast, viewpoint="d") == {"b", "c"}

    def test_member_directory_rejects_foreign_viewpoint(self):
        net = square_domain()
        igp, _ = converge(net)
        with pytest.raises(RoutingError):
            igp.member_directory(ipv4("240.0.0.1"), viewpoint="ghost")

    def test_withdraw_anycast_reroutes(self):
        net = square_domain()
        sched = EventScheduler()
        igp = LinkStateRouting(net, net.domains[1], sched)
        anycast = ipv4("240.0.0.1")
        for member in ("b", "d"):
            net.node(member).add_local_ipv4(anycast)
            igp.advertise_anycast(member, anycast)
        igp.converge()
        net.node("b").remove_local_ipv4(anycast)
        igp.withdraw_anycast("b", anycast)
        sched.run_until_idle()
        igp.install_routes()
        engine = ForwardingEngine(net)
        trace = engine.forward(ipv4_packet(net.node("c").ipv4, anycast), "c")
        assert trace.delivered_to == "d"

    def test_advertise_requires_domain_member(self):
        net = square_domain()
        sched = EventScheduler()
        igp = LinkStateRouting(net, net.domains[1], sched)
        with pytest.raises(RoutingError):
            igp.advertise_anycast("ghost", ipv4("240.0.0.1"))

    def test_supports_member_discovery_flag(self):
        assert LinkStateRouting.supports_member_discovery is True


class TestProtocolMechanics:
    def test_message_counting(self):
        net = square_domain()
        igp, _ = converge(net)
        assert igp.stats.sent > 0
        assert igp.stats.delivered > 0

    def test_refresh_without_change_is_quiet(self):
        net = square_domain()
        igp, sched = converge(net)
        sent_before = igp.stats.sent
        igp.refresh()
        sched.run_until_idle()
        assert igp.stats.sent == sent_before

    def test_igp_distance(self):
        net = square_domain()
        igp, _ = converge(net)
        assert igp_distance(igp, "a", "c") == 2.0
        assert igp_distance(igp, "a", "a") == 0.0
