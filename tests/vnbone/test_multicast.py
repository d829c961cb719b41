"""Tests for the multicast IPvN instantiation."""

import pytest

from repro.net.address import VNAddress, ipv4
from repro.net.errors import DeploymentError
from repro.anycast import DefaultRootedAnycast
from repro.core.evolution import EvolvableInternet
from repro.topogen import InternetSpec
from repro.vnbone import VnDeployment
from repro.vnbone.multicast import (VN_MULTICAST_FLAG, enable_multicast,
                                    group_address, is_multicast)

#: Every fast-path replay and cache hit in this module is re-derived
#: and compared (tests/oracles.py).
pytestmark = pytest.mark.usefixtures("paranoid_caches")


class TestGroupAddresses:
    def test_group_address_is_multicast(self):
        assert is_multicast(group_address(1))
        assert group_address(1).value & VN_MULTICAST_FLAG

    def test_unicast_addresses_are_not(self):
        assert not is_multicast(VNAddress((5 << 32) | 1))
        assert not is_multicast(VNAddress.self_assigned(ipv4("10.0.0.1")))

    def test_group_ids_distinct(self):
        assert group_address(1) != group_address(2)

    def test_bad_group_id(self):
        with pytest.raises(DeploymentError):
            group_address(0)


@pytest.fixture
def mcast_setup(converged_hub):
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
    deployment = VnDeployment(converged_hub, scheme, version=8)
    deployment.deploy(2)
    deployment.deploy(1)
    deployment.rebuild()
    service = enable_multicast(deployment)
    return converged_hub, deployment, service


class TestMembership:
    def test_join_and_receivers(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.join(group, "hz")
        assert service.receivers(group) == {"hx", "hz"}

    def test_leave(self, mcast_setup):
        orch, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.leave(group, "hx")
        assert service.receivers(group) == set()
        assert group not in orch.network.node("hx").vn_groups

    def test_join_requires_host(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        with pytest.raises(DeploymentError):
            service.join(group, "x1")

    def test_unknown_group(self, mcast_setup):
        _, _, service = mcast_setup
        with pytest.raises(DeploymentError):
            service.join(group_address(99), "hx")


class TestDelivery:
    def test_delivers_to_all_receivers(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.join(group, "hz")
        service.rebuild()
        trace = service.send("hx", group)
        assert trace.delivered_to == {"hx", "hz"}

    def test_source_in_non_adopting_domain(self, mcast_setup):
        """A source whose ISP never deployed IPv8 can still multicast:
        anycast finds the ingress, registration finds the core."""
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.rebuild()
        trace = service.send("hz", group)  # hz's AS4 has no members
        assert "hx" in trace.delivered_to

    def test_receiver_in_non_adopting_domain(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hz")  # AS4 never deployed
        service.rebuild()
        trace = service.send("hx", group)
        assert "hz" in trace.delivered_to

    def test_non_receiver_gets_nothing(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hz")
        service.rebuild()
        trace = service.send("hx", group)
        assert "hx" not in trace.delivered_to

    def test_leave_stops_delivery(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.join(group, "hz")
        service.rebuild()
        service.leave(group, "hz")
        service.rebuild()
        trace = service.send("hx", group)
        assert trace.delivered_to == {"hx"}

    def test_empty_group_drops(self, mcast_setup):
        _, _, service = mcast_setup
        group = service.create_group()
        service.rebuild()
        trace = service.send("hx", group)
        assert trace.delivered_to == set()

    def test_unicast_unaffected_by_multicast_wrap(self, mcast_setup):
        _, deployment, service = mcast_setup
        group = service.create_group()
        service.join(group, "hz")
        service.rebuild()
        trace = deployment.send("hx", "hz")
        assert trace.delivered


class TestEfficiency:
    def make_internet(self):
        internet = EvolvableInternet.generate(
            InternetSpec(n_tier1=3, n_tier2=5, n_stub=10, hosts_per_stub=2,
                         seed=99))
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        for asn in internet.stub_asns()[:2]:
            deployment.deploy(asn)
        deployment.rebuild()
        return internet, deployment, enable_multicast(deployment)

    def test_beats_unicast_fanout(self):
        internet, deployment, service = self.make_internet()
        group = service.create_group()
        receivers = internet.hosts()[2:10]
        for host in receivers:
            service.join(group, host)
        service.rebuild()
        src = internet.hosts()[0]
        trace = service.send(src, group)
        assert trace.delivered_all(set(receivers))
        unicast_cost, unicast_stress = service.unicast_equivalent_cost(
            src, group)
        assert trace.transmissions < unicast_cost
        assert trace.max_link_stress <= unicast_stress

    def test_replication_only_inside_multicast_walk(self, mcast_setup):
        """The unicast walk refuses VnReplicate (defensive check)."""
        orch, deployment, service = mcast_setup
        group = service.create_group()
        service.join(group, "hx")
        service.join(group, "hz")
        service.rebuild()
        from repro.net.packet import IPv4Header, vn_packet

        src = orch.network.node("hx")
        addr = deployment.plan.ensure_host_address("hx")
        packet = vn_packet(addr, group)
        packet.encapsulate(IPv4Header(src=src.ipv4,
                                      dst=deployment.scheme.address))
        trace = orch.forward(packet, "hx")  # unicast walk
        assert not trace.delivered
        assert "replication" in trace.drop_reason
