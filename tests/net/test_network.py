"""Unit tests for the network container and graph utilities."""

import pytest

from repro.net import (Domain, LinkScope, Network, Prefix, Relationship,
                       TopologyError, ipv4)


def net_with_domain(asn=1):
    net = Network()
    net.add_domain(Domain(asn=asn, name=f"as{asn}",
                          prefix=Prefix.parse(f"10.{asn}.0.0/16")))
    return net


class TestConstruction:
    def test_duplicate_domain_rejected(self):
        net = net_with_domain()
        with pytest.raises(TopologyError):
            net.add_domain(Domain(asn=1, name="dup",
                                  prefix=Prefix.parse("10.9.0.0/16")))

    def test_router_needs_known_domain(self):
        with pytest.raises(TopologyError):
            Network().add_router("r", 1)

    def test_duplicate_node_rejected(self):
        net = net_with_domain()
        net.add_router("r", 1)
        with pytest.raises(TopologyError):
            net.add_router("r", 1)

    def test_duplicate_address_rejected(self):
        net = net_with_domain()
        net.add_router("r1", 1, ipv4=ipv4("10.1.0.9"))
        with pytest.raises(TopologyError):
            net.add_router("r2", 1, ipv4=ipv4("10.1.0.9"))

    def test_auto_address_from_domain_block(self):
        net = net_with_domain()
        router = net.add_router("r", 1)
        assert net.domains[1].prefix.contains(router.ipv4)

    def test_parallel_link_rejected(self):
        net = net_with_domain()
        net.add_router("a", 1)
        net.add_router("b", 1)
        net.add_link("a", "b")
        with pytest.raises(TopologyError):
            net.add_link("b", "a")

    def test_inter_domain_link_requires_border(self):
        net = net_with_domain(1)
        net.add_domain(Domain(asn=2, name="as2", prefix=Prefix.parse("10.2.0.0/16")))
        net.add_router("r1", 1, is_border=False)
        net.add_router("r2", 2, is_border=True)
        with pytest.raises(TopologyError):
            net.add_link("r1", "r2")

    def test_link_scope_derived(self):
        net = net_with_domain(1)
        net.add_domain(Domain(asn=2, name="as2", prefix=Prefix.parse("10.2.0.0/16")))
        net.add_router("a", 1, is_border=True)
        net.add_router("b", 1)
        net.add_router("c", 2, is_border=True)
        assert net.add_link("a", "b").scope is LinkScope.INTRA_DOMAIN
        assert net.add_link("a", "c").scope is LinkScope.INTER_DOMAIN

    def test_connect_domains_records_both_sides(self):
        net = net_with_domain(1)
        net.add_domain(Domain(asn=2, name="as2", prefix=Prefix.parse("10.2.0.0/16")))
        net.add_router("a", 1, is_border=True)
        net.add_router("b", 2, is_border=True)
        net.connect_domains(1, 2, "a", "b", Relationship.PROVIDER)
        assert net.domains[1].relationship_with(2) is Relationship.PROVIDER
        assert net.domains[2].relationship_with(1) is Relationship.CUSTOMER

    def test_host_attaches_to_same_domain_router(self):
        net = net_with_domain(1)
        net.add_domain(Domain(asn=2, name="as2", prefix=Prefix.parse("10.2.0.0/16")))
        net.add_router("a", 1)
        with pytest.raises(TopologyError):
            net.add_host("h", 2, "a")

    def test_host_gets_default_route(self):
        net = net_with_domain()
        net.add_router("a", 1)
        host = net.add_host("h", 1, "a")
        found = host.fib4.lookup(ipv4("200.0.0.1"))
        assert found is not None and found.next_hop == "a"

    def test_access_router_gets_host_route(self):
        net = net_with_domain()
        router = net.add_router("a", 1)
        host = net.add_host("h", 1, "a")
        found = router.fib4.lookup(host.ipv4)
        assert found is not None and found.next_hop == "h"


class TestQueries:
    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            net_with_domain().node("ghost")

    def test_node_by_ipv4(self):
        net = net_with_domain()
        router = net.add_router("r", 1)
        assert net._addr_index[router.ipv4] == "r"
        assert ipv4("99.0.0.1") not in net._addr_index

    def test_neighbors_skip_down_links(self):
        net = net_with_domain()
        net.add_router("a", 1)
        net.add_router("b", 1)
        link = net.add_link("a", "b")
        assert [n for n, _ in net.neighbors("a")] == ["b"]
        link.fail()
        assert net.neighbors("a") == []
        assert [n for n, _ in net.neighbors("a", include_down=True)] == ["b"]

    def test_routers_and_hosts_filters(self):
        net = net_with_domain()
        net.add_router("a", 1)
        net.add_host("h", 1, "a")
        assert [r.node_id for r in net.routers(1)] == ["a"]
        assert sorted(net.domains[1].hosts) == ["h"]


class TestShortestPath:
    def build_triangle(self):
        net = net_with_domain()
        for name in "abc":
            net.add_router(name, 1)
        net.add_link("a", "b", cost=1.0)
        net.add_link("b", "c", cost=1.0)
        net.add_link("a", "c", cost=5.0)
        return net

    def test_prefers_cheap_two_hop(self):
        net = self.build_triangle()
        result = net.shortest_path("a", "c")
        assert result is not None
        cost, path = result
        assert cost == 2.0
        assert path == ["a", "b", "c"]

    def test_uses_direct_after_failure(self):
        net = self.build_triangle()
        net.link_between("a", "b").fail()
        result = net.shortest_path("a", "c")
        assert result is not None
        assert result[0] == 5.0

    def test_none_when_disconnected(self):
        net = self.build_triangle()
        net.link_between("a", "b").fail()
        net.link_between("a", "c").fail()
        assert net.shortest_path("a", "c") is None

    def test_same_node_zero(self):
        net = self.build_triangle()
        assert net.shortest_path("a", "a") == (0.0, ["a"])

    def test_intra_domain_only_blocks_inter_links(self):
        net = self.build_triangle()
        net.add_domain(Domain(asn=2, name="as2", prefix=Prefix.parse("10.2.0.0/16")))
        net.add_router("d", 2, is_border=True)
        # Make 'c' a border so the inter-domain link is legal.
        net.nodes["c"].is_border = True
        net.domains[1].border_routers.add("c")
        net.add_link("c", "d")
        assert net.shortest_path("a", "d") is not None
        assert net.shortest_path("a", "d", intra_domain_only=True) is None

    def test_shortest_path_tree_matches_pairwise(self):
        net = self.build_triangle()
        tree = net.shortest_path_tree("a")
        for target in "abc":
            pair = net.shortest_path("a", target)
            assert pair is not None
            assert tree[target][0] == pair[0]

    def test_stats(self):
        net = self.build_triangle()
        stats = net.stats()
        assert stats["domains"] == 1
        assert stats["routers"] == 3
        assert stats["links"] == 3
