"""Unit tests for IPvN addressing and relabeling."""

import pytest

from repro.net.errors import DeploymentError
from repro.vnbone.addressing import VnAddressPlan
from repro.vnbone.state import native_domain_prefix


@pytest.fixture
def plan(hub_network):
    return VnAddressPlan(hub_network, version=8)


class TestNativeAllocation:
    def test_sequential_native_addresses(self, plan):
        a = plan.allocate_native(2)
        b = plan.allocate_native(2)
        assert a != b
        assert native_domain_prefix(2).contains(a)
        assert native_domain_prefix(2).contains(b)

    def test_unknown_domain_rejected(self, plan):
        with pytest.raises(DeploymentError):
            plan.allocate_native(99)

    def test_domains_have_disjoint_blocks(self, plan):
        a = plan.allocate_native(2)
        assert not native_domain_prefix(3).contains(a)


class TestHostAddressing:
    def test_self_assignment_for_non_adopting_domain(self, hub_network, plan):
        address = plan.ensure_host_address("hz")
        assert address.is_self_assigned
        assert address.embedded_ipv4() == hub_network.node("hz").ipv4
        assert hub_network.node("hz").vn_addresses[8] == address

    def test_native_for_adopting_domain(self, hub_network, plan):
        hub_network.domains[2].deploy_version(8, {"x2"})
        address = plan.ensure_host_address("hx")
        assert not address.is_self_assigned
        assert native_domain_prefix(2).contains(address)

    def test_idempotent(self, plan):
        first = plan.ensure_host_address("hz")
        second = plan.ensure_host_address("hz")
        assert first == second
        assert plan.relabel_events == []

    def test_rejects_routers(self, plan):
        with pytest.raises(DeploymentError):
            plan.ensure_host_address("x2")

    def test_address_of_unassigned_is_none(self, hub_network, plan):
        assert hub_network.node("hz").vn_addresses.get(8) is None


class TestRelabeling:
    def test_adoption_relabels_self_assigned_hosts(self, hub_network, plan):
        before = plan.ensure_host_address("hx")
        assert before.is_self_assigned
        hub_network.domains[2].deploy_version(8, {"x2"})
        count = plan.relabel_domain(2)
        assert count == 1
        after = hub_network.node("hx").vn_addresses.get(8)
        assert after is not None and not after.is_self_assigned
        assert plan.relabel_events == ["hx"]

    def test_rollback_relabels_back_to_self(self, hub_network, plan):
        hub_network.domains[2].deploy_version(8, {"x2"})
        plan.ensure_host_address("hx")
        hub_network.domains[2].undeploy_version(8)
        plan.relabel_domain(2)
        address = hub_network.node("hx").vn_addresses.get(8)
        assert address is not None and address.is_self_assigned

    def test_unassigned_hosts_not_relabeled(self, hub_network, plan):
        hub_network.domains[2].deploy_version(8, {"x2"})
        assert plan.relabel_domain(2) == 0

    def test_ensure_triggers_relabel_lazily(self, hub_network, plan):
        before = plan.ensure_host_address("hx")
        hub_network.domains[2].deploy_version(8, {"x2"})
        after = plan.ensure_host_address("hx")
        assert before != after
        assert plan.relabel_events == ["hx"]
