"""Unit tests for the tiered internet generator."""

import pytest

from repro.net import LinkScope, Relationship, TopologyError
from repro.topogen import InternetSpec, generate_internet

from tests.conftest import providers


class TestStructure:
    def test_domain_counts(self):
        g = generate_internet(InternetSpec(n_tier1=2, n_tier2=4, n_stub=6, seed=1))
        assert len(g.tier1) == 2
        assert len(g.tier2) == 4
        assert len(g.stubs) == 6
        assert len(g.network.domains) == 12

    def test_tier1_clique_of_peers(self):
        g = generate_internet(InternetSpec(n_tier1=3, n_tier2=0, n_stub=0, seed=1))
        for a in g.tier1:
            for b in g.tier1:
                if a == b:
                    continue
                assert (g.network.domains[a].relationship_with(b)
                        is Relationship.PEER)

    def test_tier2_has_tier1_provider(self):
        g = generate_internet(InternetSpec(seed=2))
        for asn in g.tier2:
            uplinks = providers(g.network.domains[asn])
            assert uplinks
            assert all(p in g.tier1 for p in uplinks)

    def test_stub_has_tier2_provider(self):
        g = generate_internet(InternetSpec(seed=2))
        for asn in g.stubs:
            uplinks = providers(g.network.domains[asn])
            assert uplinks
            assert all(p in g.tier2 for p in uplinks)

    def test_hosts_in_stubs(self):
        g = generate_internet(InternetSpec(hosts_per_stub=3, seed=0))
        for asn in g.stubs:
            assert len(g.network.domains[asn].hosts) == 3

    def test_unique_prefixes(self):
        g = generate_internet(InternetSpec(seed=0))
        prefixes = [d.prefix for d in g.network.domains.values()]
        assert len(set(prefixes)) == len(prefixes)

    def test_inter_domain_links_use_borders(self):
        g = generate_internet(InternetSpec(seed=0))
        for link in g.network.links.values():
            if link.scope is LinkScope.INTER_DOMAIN:
                for end in (link.a, link.b):
                    node = g.network.node(end)
                    assert node.is_border

    def test_tiers_recorded(self):
        g = generate_internet(InternetSpec(seed=0))
        assert all(g.network.domains[a].tier == 1 for a in g.tier1)
        assert all(g.network.domains[a].tier == 3 for a in g.stubs)


class TestDeterminism:
    def test_same_seed_same_topology(self):
        a = generate_internet(InternetSpec(seed=5))
        b = generate_internet(InternetSpec(seed=5))
        assert sorted(a.network.links) == sorted(b.network.links)
        assert a.hosts == b.hosts

    def test_different_seed_differs(self):
        a = generate_internet(InternetSpec(seed=5))
        b = generate_internet(InternetSpec(seed=6))
        assert sorted(a.network.links) != sorted(b.network.links)


class TestLimits:
    def test_needs_tier1(self):
        with pytest.raises(TopologyError):
            generate_internet(InternetSpec(n_tier1=0))

    def test_domain_cap(self):
        with pytest.raises(TopologyError):
            generate_internet(InternetSpec(n_tier1=1, n_tier2=0, n_stub=300))

    def test_all_asns(self):
        g = generate_internet(InternetSpec(n_tier1=1, n_tier2=2, n_stub=3, seed=0))
        assert sorted(g.tier1 + g.tier2 + g.stubs) == list(range(1, 7))
