"""Unit tests for IPvN router state, the VN FIB, and prefix mappings."""

import pytest

from repro.net.address import Prefix, VNAddress, ipv4
from repro.net.errors import RoutingError
from repro.vnbone.state import (VnAction, VnFib, VnFibEntry, VnRouterState,
                                native_domain_prefix, vn_prefix_for_ipv4)


class TestVnFibEntry:
    def test_forward_needs_next_hop(self):
        with pytest.raises(RoutingError):
            VnFibEntry(prefix=Prefix.host(VNAddress(1)),
                       action=VnAction.FORWARD)

    def test_egress_without_target_allowed(self):
        entry = VnFibEntry(prefix=Prefix.host(VNAddress(1)),
                           action=VnAction.EGRESS)
        assert entry.egress_ipv4 is None


class TestVnFib:
    def test_longest_prefix_match(self):
        fib = VnFib()
        broad = vn_prefix_for_ipv4(Prefix.parse("10.0.0.0/8"))
        narrow = vn_prefix_for_ipv4(Prefix.parse("10.1.0.0/16"))
        fib.install(VnFibEntry(prefix=broad, action=VnAction.FORWARD, next_hop="a"))
        fib.install(VnFibEntry(prefix=narrow, action=VnAction.FORWARD, next_hop="b"))
        address = VNAddress.self_assigned(ipv4("10.1.2.3"))
        entry = fib.lookup(address)
        assert entry is not None and entry.next_hop == "b"
        other = fib.lookup(VNAddress.self_assigned(ipv4("10.9.2.3")))
        assert other is not None and other.next_hop == "a"

    def test_native_and_self_spaces_disjoint(self):
        fib = VnFib()
        native = native_domain_prefix(7)
        fib.install(VnFibEntry(prefix=native, action=VnAction.FORWARD,
                               next_hop="n"))
        self_addr = VNAddress.self_assigned(ipv4("10.7.0.1"))
        assert fib.lookup(self_addr) is None
        assert fib.lookup(VNAddress((7 << 32) | 1)) is not None

    def test_clear_and_count(self):
        fib = VnFib()
        fib.install(VnFibEntry(prefix=Prefix.host(VNAddress(1)),
                               action=VnAction.LOCAL))
        assert fib.route_count() == 1
        fib.retain(())
        assert fib.route_count() == 0
        assert len(fib) == 0

    def test_entries_listing(self):
        fib = VnFib()
        fib.install(VnFibEntry(prefix=Prefix.host(VNAddress(1)),
                               action=VnAction.LOCAL))
        fib.install(VnFibEntry(prefix=Prefix.host(VNAddress(2)),
                               action=VnAction.EGRESS, egress_ipv4=ipv4("1.1.1.1")))
        assert len(fib.entries()) == 2


class TestPrefixMappings:
    def test_vn_prefix_for_ipv4_covers_exactly_embedded_block(self):
        block = Prefix.parse("10.4.0.0/16")
        vn_pfx = vn_prefix_for_ipv4(block)
        assert vn_pfx.plen == 48
        inside = VNAddress.self_assigned(ipv4("10.4.9.9"))
        outside = VNAddress.self_assigned(ipv4("10.5.0.1"))
        native = VNAddress((4 << 32) | 1)
        assert vn_pfx.contains(inside)
        assert not vn_pfx.contains(outside)
        assert not vn_pfx.contains(native)

    def test_native_domain_prefix_covers_allocations(self):
        pfx = native_domain_prefix(12)
        assert pfx.contains(VNAddress((12 << 32) | 55))
        assert not pfx.contains(VNAddress((13 << 32) | 55))

    def test_native_domain_prefix_rejects_bad_asn(self):
        with pytest.raises(RoutingError):
            native_domain_prefix(0)

    def test_version_carried(self):
        pfx = vn_prefix_for_ipv4(Prefix.parse("10.0.0.0/8"), version=9)
        assert pfx.address.version == 9


class TestVnRouterState:
    def make(self):
        return VnRouterState(version=8, router_id="r1",
                             vn_address=VNAddress((1 << 32) | 1))

    def test_add_neighbor_keeps_cheapest(self):
        state = self.make()
        state.add_neighbor("r2", 5.0)
        state.add_neighbor("r2", 3.0)
        state.add_neighbor("r2", 9.0)
        assert state.neighbors["r2"] == 3.0

    def test_no_self_neighbor(self):
        with pytest.raises(RoutingError):
            self.make().add_neighbor("r1", 1.0)
