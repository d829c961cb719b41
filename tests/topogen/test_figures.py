"""Tests that the figure topologies match the paper's drawings."""

import pytest

from repro.net import Relationship
from repro.core.orchestrator import Orchestrator
from repro.topogen import figure1, figure2, figure3, figure4

from tests.conftest import providers


@pytest.mark.parametrize("builder", [figure1, figure2, figure3])
def test_all_figures_converge_and_are_fully_reachable(builder):
    fig = builder()
    orch = Orchestrator(fig.network)
    orch.converge()
    from repro.net import ipv4_packet

    nodes = sorted(fig.network.nodes)
    src = nodes[0]
    for dst in nodes[1:]:
        packet = ipv4_packet(fig.network.node(src).ipv4,
                             fig.network.node(dst).ipv4)
        trace = orch.forward(packet, src)
        assert trace.delivered, (builder.__name__, src, dst, trace)


class TestFigure1:
    def test_cast(self):
        fig = figure1()
        assert set(fig.domains) == {"W", "X", "Y", "Z"}
        assert fig.nodes["client_C"] == "client_c"
        client = fig.network.node("client_c")
        assert client.domain_id == fig.asn("Z")

    def test_provider_chain(self):
        fig = figure1()
        z, y, x, w = (fig.asn(n) for n in "ZYXW")
        assert fig.network.domains[z].relationship_with(y) is Relationship.PROVIDER
        assert fig.network.domains[y].relationship_with(x) is Relationship.PROVIDER
        assert fig.network.domains[x].relationship_with(w) is Relationship.PROVIDER


class TestFigure2:
    def test_cast(self):
        fig = figure2()
        assert set(fig.domains) == {"P", "Q", "D", "X", "Y", "Z"}
        for name in ("X", "Y", "Z"):
            assert fig.nodes[f"host_{name}"] in fig.network.nodes

    def test_y_is_dual_homed(self):
        fig = figure2()
        y = fig.network.domains[fig.asn("Y")]
        assert set(providers(y)) == {fig.asn("P"), fig.asn("Q")}

    def test_z_single_homed_to_q(self):
        fig = figure2()
        z = fig.network.domains[fig.asn("Z")]
        assert providers(z) == [fig.asn("Q")]


class TestFigure3:
    def test_m_and_o_peer(self):
        fig = figure3()
        m, o = fig.asn("M"), fig.asn("O")
        assert fig.network.domains[m].relationship_with(o) is Relationship.PEER

    def test_client_domain_customer_of_o(self):
        fig = figure3()
        s = fig.network.domains[fig.asn("S")]
        assert providers(s) == [fig.asn("O")]

    def test_named_routers_exist(self):
        fig = figure3()
        for role in ("border_X", "router_Z", "border_Y"):
            assert fig.nodes[role] in fig.network.nodes


class TestFigure4:
    def test_vn_chain_and_legacy_chain(self):
        fig = figure4()
        a, b, c, m, n, z = (fig.asn(x) for x in "ABCMNZ")
        domains = fig.network.domains
        # Legacy chain: A -(cust)- M -(peer)- N -(cust)- Z.
        assert domains[a].relationship_with(m) is Relationship.PROVIDER
        assert domains[m].relationship_with(n) is Relationship.PEER
        assert domains[z].relationship_with(n) is Relationship.PROVIDER
        # vN chain: A -(peer)- B -(peer)- C -(cust)- Z.
        assert domains[a].relationship_with(b) is Relationship.PEER
        assert domains[b].relationship_with(c) is Relationship.PEER
        assert domains[z].relationship_with(c) is Relationship.PROVIDER

    def test_legacy_path_is_the_only_ipv4_route_a_to_z(self):
        """The vN chain's peer links export no transit to A, so A's
        only IPv(N-1) path to Z is A -> M -> N -> Z."""
        fig = figure4()
        from repro.core.orchestrator import Orchestrator

        orch = Orchestrator(fig.network)
        orch.converge()
        prefix = fig.network.domains[fig.asn("Z")].prefix
        path = orch.bgp.speaker(fig.asn("A")).loc_rib[prefix].as_path
        assert path == (fig.asn("M"), fig.asn("N"), fig.asn("Z"))

    def test_hosts(self):
        fig = figure4()
        assert fig.network.node(fig.nodes["host_A"]).domain_id == fig.asn("A")
        assert fig.network.node(fig.nodes["host_Z"]).domain_id == fig.asn("Z")
