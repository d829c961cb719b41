"""Tests for option 1: non-aggregatable anycast prefixes in BGP."""

import pytest

from repro.net import Outcome, Prefix
from repro.net.errors import DeploymentError
from repro.anycast import ANYCAST_POOL, AnycastAddressPool, GlobalAnycast


class TestAddressPool:
    def test_allocates_from_designated_block(self):
        pool = AnycastAddressPool()
        address = pool.allocate()
        assert ANYCAST_POOL.contains(address)

    def test_allocations_unique(self):
        pool = AnycastAddressPool()
        assert pool.allocate() != pool.allocate()

    def test_exhaustion(self):
        tiny = AnycastAddressPool(Prefix.parse("240.0.0.0/30"))
        for _ in range(3):
            tiny.allocate()
        with pytest.raises(DeploymentError):
            tiny.allocate()


class TestGlobalAnycast:
    def test_first_member_originates_route(self, converged_hub):
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")
        converged_hub.reconverge()
        pfx = Prefix.host(scheme.address)
        for asn in (1, 2, 3, 4):
            assert converged_hub.bgp.speaker(asn).loc_rib.get(pfx) is not None

    def test_seamless_spread_closer_member_wins(self, converged_hub):
        """Figure 1 semantics: as deployment spreads, clients are
        redirected to ever-closer members with no reconfiguration."""
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "x2"
        scheme.add_member("z1")
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "z1"

    def test_withdrawal_on_domain_exit(self, converged_hub):
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")
        converged_hub.reconverge()
        scheme.remove_member("x2")
        converged_hub.reconverge()
        pfx = Prefix.host(scheme.address)
        assert converged_hub.bgp.speaker(4).loc_rib.get(pfx) is None
        assert scheme.resolve("hz") is None

    def test_non_propagating_isp_blackholes_customers(self, converged_hub):
        """The option-1 deployment concern: if an ISP on the path
        refuses to propagate anycast routes, its customers lose access
        (unless a member is inside or below them)."""
        converged_hub.network.domains[1].propagates_anycast = False  # hub W
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")  # member in X, behind the hub
        converged_hub.reconverge()
        trace = scheme.probe("hz")
        assert trace.outcome is Outcome.NO_ROUTE

    def test_non_propagating_isp_does_not_block_local_members(self, converged_hub):
        converged_hub.network.domains[1].propagates_anycast = False
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")
        scheme.add_member("z2")  # member in the client's own domain
        converged_hub.reconverge()
        assert scheme.resolve("hz") == "z2"

    def test_intra_domain_interception_beats_bgp(self, converged_hub):
        """A member inside the client's domain wins over remote members
        even if BGP also carries the route (IGP /32 route)."""
        scheme = GlobalAnycast(converged_hub, "g")
        scheme.add_member("x2")
        scheme.add_member("z1")
        converged_hub.reconverge()
        trace = scheme.probe("hz")
        assert trace.delivered_to == "z1"
        assert trace.physical_hops <= 2

    def test_two_groups_two_addresses(self, converged_hub):
        pool = AnycastAddressPool()
        a = GlobalAnycast(converged_hub, "a", pool=pool)
        b = GlobalAnycast(converged_hub, "b", pool=pool)
        a.add_member("x2")
        b.add_member("y2")
        assert a.address != b.address
