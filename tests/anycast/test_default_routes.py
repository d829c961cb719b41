"""Tests for option 2: default-ISP-rooted anycast (the paper's preferred)."""

import pytest

from repro.net import Prefix
from repro.net.errors import DeploymentError
from repro.anycast import DefaultRootedAnycast
from repro.core.orchestrator import Orchestrator
from repro.topogen import figure2


class TestAddressing:
    def test_address_from_default_isp_block(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "d", default_asn=2)
        domain = converged_hub.network.domains[2]
        assert domain.prefix.contains(scheme.address)

    def test_unknown_default_rejected(self, converged_hub):
        with pytest.raises(DeploymentError):
            DefaultRootedAnycast(converged_hub, "d", default_asn=99)

    def test_no_new_bgp_routes(self, converged_hub):
        """The whole point of option 2: joining adds nothing to BGP."""
        before = converged_hub.bgp.total_rib_size()
        scheme = DefaultRootedAnycast(converged_hub, "d", default_asn=2)
        scheme.add_member("x2")
        scheme.add_member("y2")
        converged_hub.reconverge()
        assert converged_hub.bgp.total_rib_size() == before
        counts = scheme.routing_state_added()
        assert all(v == 0 for v in counts.values())


class TestRedirection:
    def test_packets_follow_route_to_default(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "d", default_asn=2)
        scheme.add_member("x2")
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "x2"

    def test_on_path_adopter_intercepts(self, converged_hub):
        """A member in the hub W sits on Z's path to the default X and
        intercepts (the 'closest IPvN router along the path' property)."""
        scheme = DefaultRootedAnycast(converged_hub, "d", default_asn=2)
        scheme.add_member("x2")
        scheme.add_member("w2")
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "w2"

    def test_off_path_adopter_not_used_without_advertisement(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "d", default_asn=2)
        scheme.add_member("x2")
        scheme.add_member("y2")  # Y is not on Z's path to X
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "x2"


class TestFigure2:
    def setup_scheme(self):
        fig = figure2()
        orch = Orchestrator(fig.network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "vN", default_asn=fig.asn("D"))
        scheme.add_member("d1")
        scheme.add_member("q1")
        orch.reconverge()
        return fig, orch, scheme

    def test_x_and_y_terminate_in_default(self):
        fig, orch, scheme = self.setup_scheme()
        assert scheme.resolve("host_x") == "d1"
        assert scheme.resolve("host_y") == "d1"

    def test_z_reaches_q(self):
        fig, orch, scheme = self.setup_scheme()
        assert scheme.resolve("host_z") == "q1"

    def test_peering_advertisement_rewires_y(self):
        fig, orch, scheme = self.setup_scheme()
        scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
        assert scheme.resolve("host_y") == "q1"
        # X is untouched by the bilateral agreement.
        assert scheme.resolve("host_x") == "d1"

    def test_advertisement_withdrawal_restores_default(self):
        fig, orch, scheme = self.setup_scheme()
        scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
        scheme.withdraw_from_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
        assert scheme.resolve("host_y") == "d1"

    def test_bilateral_route_not_leaked(self):
        fig, orch, scheme = self.setup_scheme()
        scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
        pfx = Prefix.host(scheme.address)
        # Y holds the /32; P (not party to the agreement) must not.
        assert orch.bgp.speaker(fig.asn("Y")).loc_rib.get(pfx) is not None
        assert orch.bgp.speaker(fig.asn("P")).loc_rib.get(pfx) is None

    def test_advertise_requires_membership(self):
        fig, orch, scheme = self.setup_scheme()
        with pytest.raises(DeploymentError):
            scheme.advertise_to_neighbor(fig.asn("X"), fig.asn("P"))

    def test_advertise_requires_adjacency(self):
        fig, orch, scheme = self.setup_scheme()
        with pytest.raises(DeploymentError):
            scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("X"))

    def test_default_share_metric(self):
        fig, orch, scheme = self.setup_scheme()
        share = scheme.default_share(["host_x", "host_y", "host_z"])
        assert share == pytest.approx(2 / 3)

    def test_domain_exit_withdraws_advertisements(self):
        fig, orch, scheme = self.setup_scheme()
        scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
        scheme.remove_member("q1")
        orch.reconverge()
        assert scheme.resolve("host_y") == "d1"
        assert scheme.resolve("host_z") == "d1"
