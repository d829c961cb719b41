"""Unit tests for addresses and prefixes."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.address import (SELF_ADDRESS_FLAG, IPv4Address, Prefix, VNAddress,
                               ipv4)
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
        pfx = Prefix.parse("10.0.0.0/8")
        assert pfx.plen == 8
        assert pfx.address == ipv4("10.0.0.0")

    def test_canonicalizes_host_bits(self):
        pfx = Prefix(ipv4("10.1.2.3"), 8)
        assert pfx.address == ipv4("10.0.0.0")

    def test_contains_address(self):
        assert Prefix.parse("10.0.0.0/8").contains(ipv4("10.255.0.1"))
        assert not Prefix.parse("10.0.0.0/8").contains(ipv4("11.0.0.1"))

    def test_contains_more_specific_prefix(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))
        assert not Prefix.parse("10.1.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_contains_rejects_cross_family(self):
        assert not Prefix.parse("10.0.0.0/8").contains(VNAddress(0x0A000001))

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
        assert str(Prefix.parse("10.2.0.0/16")) == "10.2.0.0/16"

    def test_ordering_deterministic(self):
        prefixes = [Prefix.parse("10.2.0.0/16"), Prefix.parse("10.1.0.0/16")]
        assert sorted(prefixes)[0] == Prefix.parse("10.1.0.0/16")

    def test_sort_key_matches_str(self):
        # The BGP install path used to sort on str(prefix) per call;
        # sort_key() caches that string, so the install order must be
        # the old str-keyed order exactly.
        prefixes = [Prefix.parse("10.2.0.0/16"), Prefix.parse("10.10.0.0/16"),
                    Prefix.parse("10.1.0.0/16"), Prefix.parse("192.168.0.0/24"),
                    Prefix.parse("2.0.0.0/8"), Prefix.host(ipv4("240.0.0.1")),
                    Prefix.parse("10.2.0.0/24")]
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
        pfx = Prefix.parse("10.0.0.0/8")
        assert pfx.sort_key() == "10.0.0.0/8"
        assert pfx.sort_key() is pfx.sort_key()


# -- the types against a (type name, *fields) oracle ----------------------------
#
# Addresses and prefixes are NamedTuple subclasses: hashing, equality and
# ordering are the tuple's.  The oracle spells out what the frozen
# dataclasses they replaced did: equal iff same type and same fields,
# hash that of the field tuple, order by fields within one type.

_V4_VALUES = st.sampled_from([0, 1, 0x0A000001, 0x0A000002, 2**32 - 1])
_VN_VALUES = st.sampled_from([0, 1, 0x0A000001, SELF_ADDRESS_FLAG | 0x0A000001,
                              2**64 - 1])
_IPV4 = st.builds(IPv4Address, _V4_VALUES)
_VN = st.builds(VNAddress, _VN_VALUES, st.sampled_from([8, 9]))
_ADDRESSES = st.one_of(_IPV4, _VN)
_PREFIXES = st.one_of(
    st.builds(Prefix, _IPV4, st.sampled_from([0, 8, 31, 32])),
    st.builds(Prefix, _VN, st.sampled_from([0, 32, 63, 64])))
_VALUES = st.one_of(_ADDRESSES, _PREFIXES)


def _oracle(value):
    fields = [_oracle(field) if isinstance(field, (IPv4Address, VNAddress))
              else field for field in value]
    return (type(value).__name__, *fields)


@given(_VALUES, _VALUES)
def test_equal_and_hash_equal_iff_the_oracle_agrees(first, second):
    same = _oracle(first) == _oracle(second)
    assert (first == second) is same
    assert (first != second) is not same
    if same:
        assert hash(first) == hash(second)


@given(_VALUES)
def test_hash_is_the_field_tuple_s(value):
    # A frozen dataclass hashed the tuple of its fields, so dict and set
    # order (and every digest built on it) is unchanged.
    assert hash(value) == hash(tuple(value))
    assert value == tuple(value)


@given(st.one_of(st.tuples(_IPV4, _IPV4), st.tuples(_VN, _VN),
                 st.tuples(_PREFIXES, _PREFIXES).filter(
                     lambda pair: pair[0].bits == pair[1].bits)))
def test_one_family_orders_by_its_fields(pair):
    first, second = pair
    key = (lambda value: tuple(_oracle(field)[1:] if isinstance(field, tuple)
                               else field for field in value))
    assert (first < second) is (key(first) < key(second))
    assert (first <= second) is (key(first) <= key(second))
    assert sorted([second, first]) == sorted([first, second])


@given(_VALUES)
def test_pickle_round_trip(value):
    # Fleet workers pickle these values.
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and type(copy) is type(value)
        assert _oracle(copy) == _oracle(value)


def test_a_pickled_prefix_keeps_its_sort_key():
    pfx = Prefix.parse("10.1.0.0/16")
    pfx.sort_key()
    assert pickle.loads(pickle.dumps(pfx)).sort_key() == "10.1.0.0/16"


_RAW = st.one_of(st.integers(min_value=-2, max_value=2**64 + 2),
                 st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, -1]),
                 st.sampled_from(["1", 1.0, None]))


@given(_RAW)
def test_an_ipv4_value_is_checked(value):
    valid = isinstance(value, int) and 0 <= value < 2**32
    if valid:
        assert IPv4Address(value).value == value
    else:
        with pytest.raises(AddressError):
            IPv4Address(value)


@given(_RAW, st.integers(min_value=0, max_value=10))
def test_a_vn_value_and_version_are_checked(value, version):
    valid = isinstance(value, int) and 0 <= value < 2**64 and version >= 5
    if valid:
        assert tuple(VNAddress(value, version)) == (value, version)
        assert VNAddress(value, version=version) == VNAddress(value, version)
    else:
        with pytest.raises(AddressError):
            VNAddress(value, version)


@given(_ADDRESSES, st.integers(min_value=-2, max_value=66))
def test_a_prefix_checks_its_length_and_zeroes_host_bits(address, plen):
    bits = address.BITS
    if not 0 <= plen <= bits:
        with pytest.raises(AddressError):
            Prefix(address, plen)
        return
    pfx = Prefix(address, plen)
    mask = ((1 << plen) - 1) << (bits - plen)
    assert type(pfx.address) is type(address)
    assert pfx.address.value == address.value & mask
    assert tuple(pfx.address)[1:] == tuple(address)[1:]  # the IPvN version
    assert pfx.plen == plen and pfx.mask() == mask
    assert Prefix(pfx.address, plen) == pfx


def test_only_a_prefix_has_an_instance_dict():
    assert not hasattr(IPv4Address(1), "__dict__")
    assert not hasattr(VNAddress(1), "__dict__")
    assert Prefix.parse("10.0.0.0/8").__dict__ == {}


def test_fields_cannot_be_set():
    pfx = Prefix.parse("10.0.0.0/8")
    for value, name in ((IPv4Address(1), "value"), (VNAddress(1), "version"),
                        (pfx, "plen"), (pfx, "address")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
