"""Integration-level tests for the BGP protocol engine."""

from repro.net import (Domain, Network, Outcome, Prefix, Relationship, ipv4,
                       ipv4_packet)
from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from tests.conftest import build_chain_network, build_hub_network


class TestPropagation:
    def test_every_domain_learns_every_prefix(self, converged_hub):
        bgp = converged_hub.bgp
        for asn in (1, 2, 3, 4):
            assert bgp.speaker(asn).rib_size() == 4  # incl. own prefix

    def test_as_paths_are_loop_free(self, converged_chain):
        bgp = converged_chain.bgp
        for asn, speaker in bgp.speakers.items():
            for prefix, route in speaker.loc_rib.items():
                assert len(set(route.as_path)) == len(route.as_path)

    def test_chain_path_lengths(self, converged_chain):
        bgp = converged_chain.bgp
        net = converged_chain.network
        # AS4 (Z) to AS1 (W): path Z->Y->X->W has 3 AS hops.
        path = bgp.speaker(4).loc_rib[net.domains[1].prefix].as_path
        assert path == (3, 2, 1)

    def test_valley_free_paths(self, converged_hub):
        """In the hub topology, customer X must not transit to customer Z
        through another customer: all paths go via the hub provider."""
        bgp = converged_hub.bgp
        net = converged_hub.network
        path = bgp.speaker(2).loc_rib[net.domains[4].prefix].as_path
        assert path == (1, 4)

    def test_peers_do_not_provide_transit(self):
        """Two stubs peering with each other but having separate
        providers must not see each other's provider routes leak."""
        net = Network()
        for asn in (1, 2, 3, 4):
            net.add_domain(Domain(asn=asn, name=f"as{asn}",
                                  prefix=Prefix.parse(f"10.{asn}.0.0/16")))
            net.add_router(f"r{asn}", asn, is_border=True)
        net.connect_domains(3, 1, "r3", "r1", Relationship.PROVIDER)
        net.connect_domains(4, 2, "r4", "r2", Relationship.PROVIDER)
        net.connect_domains(3, 4, "r3", "r4", Relationship.PEER)
        orch = Orchestrator(net)
        orch.converge()
        # AS3 peers with AS4, so it reaches AS4's prefix directly...
        loc_rib = orch.bgp.speaker(3).loc_rib
        assert loc_rib[net.domains[4].prefix].as_path == (4,)
        # ...but AS3 must NOT reach AS2 (4's provider) through the peer
        # link, and there is no other path: no route at all.
        assert net.domains[2].prefix not in loc_rib


class TestWithdrawal:
    def test_withdraw_removes_routes_everywhere(self, converged_chain):
        bgp = converged_chain.bgp
        net = converged_chain.network
        pfx = net.domains[1].prefix
        bgp.withdraw(1, pfx)
        converged_chain.scheduler.run_until_idle()
        for asn in (2, 3, 4):
            assert bgp.speaker(asn).loc_rib.get(pfx) is None

    def test_anycast_origination_and_withdrawal(self, converged_chain):
        bgp = converged_chain.bgp
        pfx = Prefix.host(ipv4("240.0.0.1"))
        bgp.originate(2, pfx, scope=RouteScope.ANYCAST_GLOBAL)
        converged_chain.scheduler.run_until_idle()
        assert bgp.speaker(4).loc_rib.get(pfx) is not None
        bgp.withdraw(2, pfx)
        converged_chain.scheduler.run_until_idle()
        assert bgp.speaker(4).loc_rib.get(pfx) is None

    def test_multi_origin_anycast_prefers_closest(self, converged_chain):
        bgp = converged_chain.bgp
        pfx = Prefix.host(ipv4("240.0.0.1"))
        bgp.originate(1, pfx, scope=RouteScope.ANYCAST_GLOBAL)
        bgp.originate(3, pfx, scope=RouteScope.ANYCAST_GLOBAL)
        converged_chain.scheduler.run_until_idle()
        # AS4 (Z) is adjacent to AS3 (Y): one hop beats three.
        route = bgp.speaker(4).loc_rib.get(pfx)
        assert route is not None and route.as_path == (3,)


class TestInstallation:
    def test_end_to_end_forwarding(self, converged_chain):
        net = converged_chain.network
        trace = converged_chain.forward(
            ipv4_packet(net.node("c").ipv4, net.node("hx").ipv4), "c")
        assert trace.outcome is Outcome.DELIVERED
        assert trace.domain_path() == [4, 3, 2]

    def test_internal_routers_route_via_border(self, converged_chain):
        net = converged_chain.network
        # z2 is internal; its route to AS1's prefix goes towards z1.
        entry = net.node("z2").fib4.lookup(net.node("w1").ipv4)
        assert entry is not None and entry.next_hop == "z1"

    def test_no_physical_link_no_install(self):
        net = build_hub_network()
        orch = Orchestrator(net)
        orch.converge()
        # Kill the only physical path from Z to the world, reconverge
        # FIB installation: routes via the dead link are not installed.
        net.link_between("z1", "w1").fail()
        orch.bgp.install_routes()
        entry = net.node("z1").fib4.lookup(net.node("x1").ipv4)
        assert entry is None

    def test_route_counts(self, converged_hub):
        counts = {asn: speaker.rib_size()
                  for asn, speaker in converged_hub.bgp.speakers.items()}
        assert set(counts) == {1, 2, 3, 4}
        assert all(v == 4 for v in counts.values())


class TestHotPotato:
    def test_router_picks_nearest_egress(self):
        """A domain with two borders to the same provider: each internal
        router exits via its closer border."""
        net = Network()
        net.add_domain(Domain(asn=1, name="big", prefix=Prefix.parse("10.1.0.0/16")))
        net.add_domain(Domain(asn=2, name="up", prefix=Prefix.parse("10.2.0.0/16")))
        for rid, border in [("a", True), ("b", False), ("c", True)]:
            net.add_router(rid, 1, is_border=border)
        net.add_link("a", "b", cost=1)
        net.add_link("b", "c", cost=1)
        net.add_router("p1", 2, is_border=True)
        net.add_router("p2", 2, is_border=True)
        net.add_link("p1", "p2", cost=1)
        net.connect_domains(1, 2, "a", "p1", Relationship.PROVIDER)
        net.add_link("c", "p2")  # second physical link, same AS pair
        orch = Orchestrator(net)
        orch.converge()
        target = net.domains[2].prefix
        entry_a = net.node("a").fib4.lookup(ipv4("10.2.0.9"))
        entry_c = net.node("c").fib4.lookup(ipv4("10.2.0.9"))
        assert entry_a is not None and entry_a.next_hop == "p1"
        assert entry_c is not None and entry_c.next_hop == "p2"
