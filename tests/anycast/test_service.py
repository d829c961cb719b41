"""Unit tests for the anycast service façade (membership, probes, metrics)."""

import pytest

from repro.net import ipv4
from repro.net.errors import DeploymentError
from repro.anycast import GlobalAnycast


@pytest.fixture
def scheme(converged_hub):
    return GlobalAnycast(converged_hub, "test-group")


class TestMembership:
    def test_add_member_configures_accept_and_advert(self, converged_hub, scheme):
        scheme.add_member("x2")
        node = converged_hub.network.node("x2")
        assert node.accepts_ipv4(scheme.address)
        adverts = converged_hub.igp(2)._anycast_adverts
        assert {rid for rid in adverts if scheme.address in adverts[rid]} \
            == {"x2"}
        assert scheme._members == {"x2"}
        assert scheme._member_domains == {2}

    def test_add_member_idempotent(self, scheme):
        scheme.add_member("x2")
        scheme.add_member("x2")
        assert scheme._members == {"x2"}

    def test_hosts_cannot_be_members(self, scheme):
        with pytest.raises(DeploymentError):
            scheme.add_member("hx")

    def test_remove_member_cleans_up(self, converged_hub, scheme):
        scheme.add_member("x2")
        scheme.add_member("x1")
        scheme.remove_member("x2")
        assert scheme._members == {"x1"}
        assert scheme._member_domains == {2}
        assert not converged_hub.network.node("x2").accepts_ipv4(scheme.address)
        scheme.remove_member("x1")
        assert scheme._member_domains == set()

    def test_remove_unknown_member_noop(self, scheme):
        scheme.remove_member("x2")  # never added; must not raise

    def test_members_in_domain(self, scheme):
        scheme.add_member("x1")
        scheme.add_member("x2")
        scheme.add_member("y1")
        assert scheme.members_in_domain(2) == {"x1", "x2"}
        assert scheme.members_in_domain(3) == {"y1"}


class TestResolution:
    def test_resolve_reaches_member(self, converged_hub, scheme):
        scheme.add_member("x2")
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "x2"

    def test_resolve_none_without_members(self, converged_hub, scheme):
        _ = scheme.address
        converged_hub.reconverge()
        assert scheme.resolve("hz") is None

    def test_local_member_resolves_to_itself(self, converged_hub, scheme):
        scheme.add_member("x2")
        converged_hub.reconverge()
        assert scheme.resolve("x2") == "x2"

    def test_proximity_stretch_one_for_unique_member(self, converged_hub, scheme):
        scheme.add_member("x2")
        converged_hub.reconverge()
        assert scheme.proximity_stretch("hz") == pytest.approx(1.0)

    def test_proximity_stretch_none_when_unreachable(self, converged_hub, scheme):
        _ = scheme.address
        converged_hub.reconverge()
        assert scheme.proximity_stretch("hz") is None

    def test_optimal_member_cost(self, converged_hub, scheme):
        scheme.add_member("x2")
        scheme.add_member("z2")
        converged_hub.reconverge()
        best = scheme.optimal_member_cost("hz")
        assert best is not None
        member, cost = best
        assert member == "z2"
        assert cost == pytest.approx(1.0)


class TestAccounting:
    def test_routing_state_added(self, converged_hub, scheme):
        scheme.add_member("x2")
        converged_hub.reconverge()
        counts = scheme.routing_state_added()
        # Option 1: the host route appears in every AS's Loc-RIB.
        assert all(counts[asn] == 1 for asn in (1, 2, 3, 4))

    def test_describe_mentions_members(self, scheme):
        scheme.add_member("x2")
        text = scheme.describe()
        assert "members=1" in text
