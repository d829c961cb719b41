"""Unit tests for egress selection policies."""

import pytest

from repro.net import Prefix, ipv4
from repro.net.address import VNAddress
from repro.anycast import DefaultRootedAnycast
from repro.vnbone.egress import (EGRESS_AS_HOP_COST, EgressPolicy, HostRegistry,
                                 external_owner_entries)
from repro.vnbone.state import VnAction, vn_prefix_for_ipv4

#: Every fast-path replay and cache hit in this module is re-derived
#: and compared (tests/oracles.py).
pytestmark = pytest.mark.usefixtures("paranoid_caches")


def _self_assign(host):
    host.assign_vn_address(VNAddress.self_assigned(host.ipv4, version=8))


class TestExternalOwnerEntries:
    def test_exit_immediately_advertises_nothing(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2"],
            EgressPolicy.EXIT_IMMEDIATELY, adopting_asns={2})
        assert entries == []

    def test_bgp_informed_covers_all_external_domains(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2"],
            EgressPolicy.BGP_INFORMED, adopting_asns={2})
        covered = {e.prefix for e in entries}
        expected = {vn_prefix_for_ipv4(converged_hub.network.domains[asn].prefix)
                    for asn in (1, 3, 4)}
        assert covered == expected
        assert all(e.action is VnAction.EGRESS for e in entries)
        assert all(e.egress_ipv4 is None for e in entries)

    def test_advertised_cost_scales_with_as_path(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2"],
            EgressPolicy.BGP_INFORMED, adopting_asns={2})
        by_prefix = {e.prefix: e for e in entries}
        # From X: W is one AS hop, Z is two.
        w_pfx = vn_prefix_for_ipv4(converged_hub.network.domains[1].prefix)
        z_pfx = vn_prefix_for_ipv4(converged_hub.network.domains[4].prefix)
        assert by_prefix[w_pfx].advertised_cost == 1 * EGRESS_AS_HOP_COST
        assert by_prefix[z_pfx].advertised_cost == 2 * EGRESS_AS_HOP_COST

    def test_proxy_threshold_filters(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2"],
            EgressPolicy.PROXY, adopting_asns={2}, proxy_threshold=1)
        covered = {e.prefix for e in entries}
        # Only W (1 hop from X) is proxied; Y and Z (2 hops) are not.
        assert covered == {vn_prefix_for_ipv4(
            converged_hub.network.domains[1].prefix)}

    def test_members_in_destination_path_multiple_owners(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2", "w2"],
            EgressPolicy.BGP_INFORMED, adopting_asns={1, 2})
        z_pfx = vn_prefix_for_ipv4(converged_hub.network.domains[4].prefix)
        owners = {e.owner: e.advertised_cost for e in entries if e.prefix == z_pfx}
        # W's member is 1 AS hop from Z; X's member is 2.
        assert owners["w2"] == 1 * EGRESS_AS_HOP_COST
        assert owners["x2"] == 2 * EGRESS_AS_HOP_COST

    def test_host_advertised_policy_advertises_nothing_here(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["x2"],
            EgressPolicy.HOST_ADVERTISED, adopting_asns={2})
        assert entries == []


class TestHostRegistry:
    def test_register_and_entries(self, converged_hub):
        registry = HostRegistry(version=8)
        host = converged_hub.network.node("hz")
        _self_assign(host)
        registry.register("hz", "x2")
        entries = registry.owner_entries(converged_hub.network,
                                         live_members={"x2"})
        assert len(entries) == 1
        entry = entries[0]
        assert entry.owner == "x2"
        assert entry.egress_ipv4 == host.ipv4
        assert entry.prefix == Prefix.host(host.vn_addresses[8])

    def test_fate_sharing_with_dead_member(self, converged_hub):
        registry = HostRegistry(version=8)
        _self_assign(converged_hub.network.node("hz"))
        registry.register("hz", "x2")
        # The advertising router rolled back: advertisement dies with it.
        assert registry.owner_entries(converged_hub.network,
                                      live_members={"y2"}) == []

    def test_unaddressed_host_skipped(self, converged_hub):
        registry = HostRegistry(version=8)
        registry.register("hz", "x2")
        assert registry.owner_entries(converged_hub.network,
                                      live_members={"x2"}) == []

    def test_deregister(self, converged_hub):
        registry = HostRegistry(version=8)
        _self_assign(converged_hub.network.node("hz"))
        registry.register("hz", "x2")
        registry.deregister("hz")
        assert registry.registered_hosts == set()
        assert registry.advertiser_of("hz") is None

    def test_reregistration_replaces(self, converged_hub):
        registry = HostRegistry(version=8)
        _self_assign(converged_hub.network.node("hz"))
        registry.register("hz", "x2")
        registry.register("hz", "y2")
        assert registry.advertiser_of("hz") == "y2"
