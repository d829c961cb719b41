"""Unit tests for addresses and prefixes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.address import (SELF_ADDRESS_FLAG, IPv4Address, Prefix, VNAddress,
                               ipv4, prefix)
from repro.net.errors import AddressError


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address.parse("10.0.0.1").value == 0x0A000001

    def test_str_roundtrip(self):
        assert str(IPv4Address.parse("192.168.1.254")) == "192.168.1.254"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parse_str_roundtrip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address

    def test_rejects_negative(self):
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_rejects_too_large(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    @pytest.mark.parametrize("text", ["10.0.0", "10.0.0.0.0", "a.b.c.d",
                                      "256.0.0.1", "-1.0.0.0", ""])
    def test_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            IPv4Address.parse(text)

    def test_ordering_follows_value(self):
        assert IPv4Address(1) < IPv4Address(2)

    def test_hashable(self):
        assert len({IPv4Address(1), IPv4Address(1), IPv4Address(2)}) == 2

    def test_ipv4_helper_accepts_both(self):
        assert ipv4("10.0.0.1") == ipv4(0x0A000001)


class TestVNAddress:
    def test_self_assigned_sets_flag(self):
        address = VNAddress.self_assigned(ipv4("10.1.2.3"))
        assert address.is_self_assigned
        assert address.value & SELF_ADDRESS_FLAG

    def test_embedded_ipv4_roundtrip(self):
        original = ipv4("172.16.9.8")
        assert VNAddress.self_assigned(original).embedded_ipv4() == original

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_embedding_roundtrip_property(self, value):
        original = IPv4Address(value)
        assert VNAddress.self_assigned(original).embedded_ipv4() == original

    def test_native_address_has_no_embedded_ipv4(self):
        with pytest.raises(AddressError):
            VNAddress(42).embedded_ipv4()

    def test_version_floor(self):
        with pytest.raises(AddressError):
            VNAddress(1, version=4)

    def test_default_version_is_8(self):
        assert VNAddress(1).version == 8

    def test_str_marks_kind(self):
        assert "/self" in str(VNAddress.self_assigned(ipv4("1.2.3.4")))
        assert "/native" in str(VNAddress(7))


class TestPrefix:
    def test_parse(self):
        pfx = prefix("10.0.0.0/8")
        assert pfx.plen == 8
        assert pfx.address == ipv4("10.0.0.0")

    def test_canonicalizes_host_bits(self):
        pfx = Prefix(ipv4("10.1.2.3"), 8)
        assert pfx.address == ipv4("10.0.0.0")

    def test_contains_address(self):
        assert prefix("10.0.0.0/8").contains(ipv4("10.255.0.1"))
        assert not prefix("10.0.0.0/8").contains(ipv4("11.0.0.1"))

    def test_contains_more_specific_prefix(self):
        assert prefix("10.0.0.0/8").contains(prefix("10.1.0.0/16"))
        assert not prefix("10.1.0.0/16").contains(prefix("10.0.0.0/8"))

    def test_contains_rejects_cross_family(self):
        assert not prefix("10.0.0.0/8").contains(VNAddress(0x0A000001))

    def test_host_route(self):
        assert Prefix.host(ipv4("1.2.3.4")).plen == 32
        assert Prefix.host(VNAddress(5)).plen == 64

    def test_zero_length_prefix_contains_everything(self):
        default = Prefix(IPv4Address(0), 0)
        assert default.contains(ipv4("255.255.255.255"))

    def test_rejects_bad_plen(self):
        with pytest.raises(AddressError):
            Prefix(ipv4("10.0.0.0"), 33)

    @pytest.mark.parametrize("text", ["10.0.0.0", "10.0.0.0/x", "/8"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            Prefix.parse(text)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=32))
    def test_canonical_prefix_contains_own_network(self, value, plen):
        pfx = Prefix(IPv4Address(value), plen)
        assert pfx.contains(pfx.address)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=32))
    def test_mask_has_plen_leading_ones(self, value, plen):
        pfx = Prefix(IPv4Address(value), plen)
        assert bin(pfx.mask()).count("1") == plen

    def test_str(self):
        assert str(prefix("10.2.0.0/16")) == "10.2.0.0/16"

    def test_ordering_deterministic(self):
        prefixes = [prefix("10.2.0.0/16"), prefix("10.1.0.0/16")]
        assert sorted(prefixes)[0] == prefix("10.1.0.0/16")

    def test_sort_key_matches_str(self):
        # The BGP install path used to sort on str(prefix) per call;
        # sort_key() caches that string, so the install order must be
        # the old str-keyed order exactly.
        prefixes = [prefix("10.2.0.0/16"), prefix("10.10.0.0/16"),
                    prefix("10.1.0.0/16"), prefix("192.168.0.0/24"),
                    prefix("2.0.0.0/8"), Prefix.host(ipv4("240.0.0.1")),
                    prefix("10.2.0.0/24")]
        assert (sorted(prefixes, key=Prefix.sort_key)
                == sorted(prefixes, key=str))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                              st.integers(min_value=0, max_value=32)),
                    max_size=20))
    def test_sort_key_order_property(self, pairs):
        prefixes = [Prefix(IPv4Address(value), plen) for value, plen in pairs]
        assert (sorted(prefixes, key=Prefix.sort_key)
                == sorted(prefixes, key=str))

    def test_sort_key_is_cached(self):
        pfx = prefix("10.0.0.0/8")
        assert pfx.sort_key() == "10.0.0.0/8"
        assert pfx.sort_key() is pfx.sort_key()
