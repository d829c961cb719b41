"""Unit tests for nodes, FIBs, and links."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import IPv4Address, Prefix, VNAddress, ipv4
from repro.net.errors import TopologyError
from repro.net.link import Link, LinkScope
from repro.net.node import Fib, FibEntry, Host, NodeKind, Router, RouteSource

from tests.oracles import FibOracle, fib_entries, fib_get


def entry(text, next_hop, source, metric=0.0):
    return FibEntry(prefix=Prefix.parse(text), next_hop=next_hop,
                    source=source, metric=metric)


class TestLink:
    def test_other_endpoint(self):
        link = Link(a="x", b="y")
        assert link.other("x") == "y"
        assert link.other("y") == "x"

    def test_other_rejects_stranger(self):
        with pytest.raises(TopologyError):
            Link(a="x", b="y").other("z")

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(a="x", b="x")

    def test_negative_cost_rejected(self):
        with pytest.raises(TopologyError):
            Link(a="x", b="y", cost=-1)

    @pytest.mark.parametrize("cost", [0, 0.0, float("nan")])
    def test_a_zero_or_nan_cost_is_rejected(self, cost):
        with pytest.raises(TopologyError):
            Link(a="x", b="y", cost=cost)

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_a_negative_or_nan_delay_is_rejected(self, delay):
        with pytest.raises(TopologyError):
            Link(a="x", b="y", delay=delay)

    def test_a_zero_delay_is_kept(self):
        assert Link(a="x", b="y", delay=0.0).delay == 0.0

    def test_endpoints_canonical(self):
        assert Link(a="y", b="x").endpoints() == ("x", "y")

    def test_fail_and_restore(self):
        link = Link(a="x", b="y")
        link.fail()
        assert not link.up
        link.restore()
        assert link.up

    def test_default_scope_intra(self):
        assert Link(a="x", b="y").scope is LinkScope.INTRA_DOMAIN


class TestFib:
    def test_lookup_longest_prefix(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "a", RouteSource.BGP))
        fib.install(entry("10.1.0.0/16", "b", RouteSource.BGP))
        found = fib.lookup(ipv4("10.1.2.3"))
        assert found is not None and found.next_hop == "b"

    def test_admin_distance_igp_beats_bgp(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "bgp-hop", RouteSource.BGP))
        fib.install(entry("10.0.0.0/8", "igp-hop", RouteSource.IGP))
        found = fib.lookup(ipv4("10.5.0.1"))
        assert found is not None and found.next_hop == "igp-hop"

    def test_metric_breaks_same_source(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "far", RouteSource.IGP, metric=9.0))
        # A re-install from the same source replaces the earlier offer.
        fib.install(entry("10.0.0.0/8", "near", RouteSource.IGP, metric=1.0))
        found = fib.lookup(ipv4("10.0.0.1"))
        assert found is not None and found.next_hop == "near"

    def test_withdraw_only_named_source(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "bgp-hop", RouteSource.BGP))
        fib.install(entry("10.0.0.0/8", "igp-hop", RouteSource.IGP))
        assert fib.withdraw(Prefix.parse("10.0.0.0/8"), RouteSource.IGP)
        found = fib.lookup(ipv4("10.0.0.1"))
        assert found is not None and found.next_hop == "bgp-hop"

    def test_withdraw_missing_returns_false(self):
        assert not Fib().withdraw(Prefix.parse("10.0.0.0/8"), RouteSource.IGP)

    def test_withdraw_all(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "a", RouteSource.IGP))
        fib.install(entry("11.0.0.0/8", "b", RouteSource.IGP))
        fib.install(entry("12.0.0.0/8", "c", RouteSource.BGP))
        assert fib.withdraw_all(RouteSource.IGP) == 2
        assert len(fib_entries(fib)) == 1

    def test_non_local_needs_next_hop(self):
        with pytest.raises(TopologyError):
            FibEntry(prefix=Prefix.parse("10.0.0.0/8"), next_hop=None,
                     source=RouteSource.IGP)

    def test_local_entry_allowed(self):
        fib_entry = FibEntry(prefix=Prefix.parse("10.0.0.0/32"), next_hop=None,
                             source=RouteSource.CONNECTED, local=True)
        assert fib_entry.local

    def test_entries_one_per_prefix(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "a", RouteSource.BGP))
        fib.install(entry("10.0.0.0/8", "b", RouteSource.IGP))
        assert len(fib_entries(fib)) == 1


# -- property-based: stored winners vs an oracle that recomputes them ----------

# Three nested prefixes and a disjoint one over four sources and three
# metrics: small enough that offers collide, replace and tie often.
_FIB_PREFIXES = [Prefix.parse(text) for text in (
    "0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.3/32", "192.168.0.0/24")]
_fib_prefixes = st.sampled_from(_FIB_PREFIXES)
_fib_sources = st.sampled_from(list(RouteSource))
_fib_ops = st.one_of(
    st.tuples(st.just("install"), _fib_prefixes, _fib_sources,
              st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from(["a", "b"])),
    st.tuples(st.just("withdraw"), _fib_prefixes, _fib_sources),
    st.tuples(st.just("withdraw_all"), _fib_sources))
_fib_probes = [ipv4(text) for text in (
    "10.1.2.3", "10.1.2.4", "10.1.9.9", "10.9.9.9", "192.168.0.7", "8.8.8.8")]


@settings(max_examples=300, deadline=None)
@given(st.lists(_fib_ops, max_size=40))
def test_fib_matches_recomputing_oracle(ops):
    fib, oracle = Fib(), FibOracle()
    for op, *args in ops:
        if op == "install":
            pfx, source, metric, next_hop = args
            offer = FibEntry(prefix=pfx, next_hop=next_hop, source=source,
                             metric=metric)
            fib.install(offer)
            oracle.install(offer)
        else:
            assert getattr(fib, op)(*args) == getattr(oracle, op)(*args)
        assert fib_entries(fib) == oracle.entries()
        assert fib.snapshot() == oracle.snapshot()
        assert len(fib_entries(fib)) == oracle.route_count()
        for address in _fib_probes:
            assert fib.lookup(address) == oracle.lookup(address)
        for pfx in _FIB_PREFIXES:
            assert fib_get(fib, pfx) == oracle.get(pfx)
            for source in RouteSource:
                assert fib_get(fib, pfx, source) == oracle.get(pfx, source)
                assert fib.snapshot(source) == oracle.snapshot(source)


class TestNodes:
    def test_router_accepts_own_address(self):
        router = Router(node_id="r", ipv4=ipv4("10.0.0.1"), domain_id=1)
        assert router.accepts_ipv4(ipv4("10.0.0.1"))
        assert not router.accepts_ipv4(ipv4("10.0.0.2"))

    def test_anycast_membership_via_local_address(self):
        router = Router(node_id="r", ipv4=ipv4("10.0.0.1"), domain_id=1)
        anycast = ipv4("240.0.0.1")
        router.add_local_ipv4(anycast)
        assert router.accepts_ipv4(anycast)
        router.remove_local_ipv4(anycast)
        assert not router.accepts_ipv4(anycast)

    def test_cannot_remove_primary_address(self):
        router = Router(node_id="r", ipv4=ipv4("10.0.0.1"), domain_id=1)
        with pytest.raises(TopologyError):
            router.remove_local_ipv4(ipv4("10.0.0.1"))

    def test_host_requires_access_router(self):
        with pytest.raises(TopologyError):
            Host(node_id="h", ipv4=ipv4("10.0.0.9"), domain_id=1,
                 kind=NodeKind.HOST, access_router="")

    def test_host_self_assign(self):
        host = Host(node_id="h", ipv4=ipv4("10.4.0.3"), domain_id=1,
                    kind=NodeKind.HOST, access_router="r")
        address = VNAddress.self_assigned(host.ipv4, version=8)
        host.assign_vn_address(address)
        assert address.is_self_assigned
        assert host.vn_addresses[8] == address
        assert host.vn_addresses.get(9) is None

    def test_host_assign_native(self):
        host = Host(node_id="h", ipv4=ipv4("10.4.0.3"), domain_id=1,
                    kind=NodeKind.HOST, access_router="r")
        native = VNAddress((1 << 32) | 7)
        host.assign_vn_address(native)
        assert host.vn_addresses[8] == native

    def test_kind_flags(self):
        router = Router(node_id="r", ipv4=ipv4("10.0.0.1"), domain_id=1)
        host = Host(node_id="h", ipv4=ipv4("10.0.0.2"), domain_id=1,
                    kind=NodeKind.HOST, access_router="r")
        assert router.is_router and not router.is_host
        assert host.is_host and not host.is_router
