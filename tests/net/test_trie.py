"""Unit and property-based tests for the longest-prefix-match table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.net.address import IPV4_BITS, VN_BITS, IPv4Address, Prefix, VNAddress
from repro.net.errors import AddressError
from repro.net.lpm import PrefixTable


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestBasics:
    def test_empty_trie(self):
        table = PrefixTable(IPV4_BITS)
        assert len(table) == 0
        assert not table
        assert table.lookup(IPv4Address(1)) is None

    def test_insert_and_exact_get(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.0.0.0/8"), "a")
        assert table.get(p("10.0.0.0/8")) == "a"
        assert table.get(p("10.0.0.0/16")) is None

    def test_insert_replaces(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.0.0.0/8"), "a")
        table.insert(p("10.0.0.0/8"), "b")
        assert table.get(p("10.0.0.0/8")) == "b"
        assert len(table) == 1

    def test_longest_prefix_wins(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.0.0.0/8"), "short")
        table.insert(p("10.1.0.0/16"), "long")
        match = table.lookup(IPv4Address.parse("10.1.2.3"))
        assert match is not None
        assert match[1] == "long"
        match2 = table.lookup(IPv4Address.parse("10.2.2.3"))
        assert match2 is not None and match2[1] == "short"

    def test_default_route_matches_everything(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(Prefix(IPv4Address(0), 0), "default")
        match = table.lookup(IPv4Address.parse("200.1.2.3"))
        assert match is not None and match[1] == "default"

    def test_remove_and_prune(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.1.0.0/16"), "x")
        assert table.remove(p("10.1.0.0/16")) == "x"
        assert len(table) == 0
        assert table.lookup(IPv4Address.parse("10.1.0.1")) is None

    def test_remove_keeps_shorter_entry(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.0.0.0/8"), "short")
        table.insert(p("10.1.0.0/16"), "long")
        table.remove(p("10.1.0.0/16"))
        match = table.lookup(IPv4Address.parse("10.1.0.1"))
        assert match is not None and match[1] == "short"

    def test_remove_missing_raises(self):
        table = PrefixTable(IPV4_BITS)
        with pytest.raises(KeyError):
            table.remove(p("10.0.0.0/8"))

    def test_contains(self):
        table = PrefixTable(IPV4_BITS)
        table.insert(p("10.0.0.0/8"), None)
        assert p("10.0.0.0/8") in table
        assert p("10.0.0.0/9") not in table

    def test_family_mismatch_rejected(self):
        table = PrefixTable(IPV4_BITS)
        with pytest.raises(AddressError):
            table.insert(Prefix(VNAddress(1), 64), "x")
        with pytest.raises(AddressError):
            table.lookup(VNAddress(1))

    def test_vn_family_trie(self):
        table = PrefixTable(VN_BITS)
        table.insert(Prefix(VNAddress(8 << 32), 32), "native")
        match = table.lookup(VNAddress((8 << 32) | 5))
        assert match is not None and match[1] == "native"

    def test_items_sorted_iteration(self):
        table = PrefixTable(IPV4_BITS)
        for text in ["10.0.0.0/8", "9.0.0.0/8", "10.128.0.0/9"]:
            table.insert(p(text), text)
        assert [str(pfx) for pfx, _ in table.items()] == [
            "9.0.0.0/8", "10.0.0.0/8", "10.128.0.0/9"]


# -- property-based: table vs reference model ---------------------------------

prefixes_st = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
).map(lambda t: Prefix(IPv4Address(t[0]), t[1]))

addresses_st = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


def reference_lookup(model, address):
    """Longest-match over a plain dict of prefixes."""
    best = None
    for pfx, value in model.items():
        if pfx.contains(address):
            if best is None or pfx.plen > best[0].plen:
                best = (pfx, value)
    return best


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(prefixes_st, st.integers()), max_size=30),
       addresses_st)
def test_lookup_matches_reference_model(entries, address):
    table = PrefixTable(IPV4_BITS)
    model = {}
    for pfx, value in entries:
        table.insert(pfx, value)
        model[pfx] = value
    assert table.lookup(address) == reference_lookup(model, address)
    assert len(table) == len(model)


@settings(max_examples=100, deadline=None)
@given(st.lists(prefixes_st, min_size=1, max_size=20, unique=True),
       st.data())
def test_insert_remove_roundtrip(prefixes, data):
    table = PrefixTable(IPV4_BITS)
    for index, pfx in enumerate(prefixes):
        table.insert(pfx, index)
    doomed = data.draw(st.sampled_from(prefixes))
    table.remove(doomed)
    assert doomed not in table
    for index, pfx in enumerate(prefixes):
        if pfx != doomed:
            assert table.get(pfx) == index


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(prefixes_st, st.integers()), max_size=25))
def test_items_roundtrip(entries):
    table = PrefixTable(IPV4_BITS)
    model = {}
    for pfx, value in entries:
        table.insert(pfx, value)
        model[pfx] = value
    assert dict(table.items()) == model


# -- stateful: every operation interleaved, both families ---------------------


class PrefixTableMachine(RuleBasedStateMachine):
    """Drives a ``PrefixTable`` and a plain dict through the same calls.

    Addresses come from a handful of bases drawn per run (or from an
    installed prefix), so nesting, replacement and removing the *last*
    prefix of a length all happen often.
    """

    make_address = None  # IPv4Address / VNAddress, set by the subclasses

    def __init__(self):
        super().__init__()
        self.bits = self.make_address.BITS
        self.table = PrefixTable(self.bits)
        self.model = {}

    @initialize(bases=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
    def pick_bases(self, bases):
        self.bases = [base % (1 << self.bits) for base in bases]

    def address(self, data):
        value = data.draw(st.one_of(
            st.sampled_from(self.bases),
            st.sampled_from(sorted(self.model)).map(lambda p: p.address.value)
            if self.model else st.nothing(),
            st.integers(min_value=0, max_value=(1 << self.bits) - 1)))
        flip = data.draw(st.integers(min_value=0, max_value=self.bits))
        return self.make_address(value ^ ((1 << flip) >> 1))

    def prefix(self, data):
        plen = data.draw(st.integers(min_value=0, max_value=self.bits))
        return Prefix(self.address(data), plen)

    @rule(data=st.data(), value=st.integers())
    def insert(self, data, value):
        pfx = self.prefix(data)
        self.table.insert(pfx, value)
        self.model[pfx] = value

    @rule(data=st.data())
    def install_every_length(self, data):
        address = self.address(data)
        for plen in range(self.bits + 1):
            self.table.insert(Prefix(address, plen), plen)
            self.model[Prefix(address, plen)] = plen
        assert self.table.lookup(address) == (Prefix.host(address), self.bits)
        covering = [pfx for pfx, _ in self.table.items() if pfx.contains(address)]
        assert len(covering) == self.bits + 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_installed(self, data):
        pfx = data.draw(st.sampled_from(sorted(self.model)))
        assert self.table.remove(pfx) == self.model.pop(pfx)
        assert pfx not in self.table
        # The address it used to cover: a length index left behind by the
        # last prefix of a length would answer (or crash) here.
        assert (self.table.lookup(pfx.address)
                == reference_lookup(self.model, pfx.address))

    @rule(data=st.data())
    def remove_missing(self, data):
        pfx = self.prefix(data)
        if pfx not in self.model:
            with pytest.raises(KeyError):
                self.table.remove(pfx)

    @rule(data=st.data())
    def get(self, data):
        pfx = self.prefix(data)
        assert self.table.get(pfx) == self.model.get(pfx)
        assert self.table.get(pfx, "absent") == self.model.get(pfx, "absent")
        assert (pfx in self.table) == (pfx in self.model)

    @rule(data=st.data())
    def lookup(self, data):
        address = self.address(data)
        assert self.table.lookup(address) == reference_lookup(self.model, address)

    @rule()
    def remove_everything(self):
        # In key order, so every length loses its last prefix in turn.
        for pfx, _ in list(self.table.items()):
            assert self.table.remove(pfx) == self.model.pop(pfx)
        assert not self.model

    @invariant()
    def same_contents_in_key_order(self):
        assert len(self.table) == len(self.model)
        assert bool(self.table) == bool(self.model)
        items = list(self.table.items())
        assert dict(items) == self.model
        keys = [(pfx.address.value, pfx.plen) for pfx, _ in items]
        assert keys == sorted(keys)


class IPv4TableMachine(PrefixTableMachine):
    make_address = IPv4Address


class VNTableMachine(PrefixTableMachine):
    make_address = VNAddress


_stateful = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestIPv4TableStateful = IPv4TableMachine.TestCase
TestIPv4TableStateful.settings = _stateful
TestVNTableStateful = VNTableMachine.TestCase
TestVNTableStateful.settings = _stateful


@pytest.mark.parametrize("make_address", [IPv4Address, VNAddress])
def test_every_length_installed_at_once(make_address):
    bits = make_address.BITS
    address = make_address((1 << bits) - 1)
    table = PrefixTable(bits)
    for plen in range(bits + 1):
        table.insert(Prefix(address, plen), plen)
    assert len(table) == bits + 1
    assert table.lookup(address) == (Prefix.host(address), bits)
    assert [pfx.plen for pfx, _ in table.items()] == list(range(bits + 1))
    # An address sharing only the top bit matches /0 and /1.
    assert table.lookup(make_address(1 << (bits - 1)))[1] == 1
    assert table.lookup(make_address(0))[1] == 0


def test_last_prefix_of_a_length_leaves_no_stale_index():
    table = PrefixTable(IPV4_BITS)
    table.insert(p("10.0.0.0/8"), "short")
    table.insert(p("10.1.2.0/24"), "long")
    table.remove(p("10.1.2.0/24"))
    assert table.lookup(IPv4Address.parse("10.1.2.3")) == (p("10.0.0.0/8"), "short")
    assert list(table.items()) == [(p("10.0.0.0/8"), "short")]
    table.remove(p("10.0.0.0/8"))
    assert table.lookup(IPv4Address.parse("10.1.2.3")) is None
    table.insert(p("10.1.2.0/24"), "again")
    assert table.lookup(IPv4Address.parse("10.1.2.3")) == (p("10.1.2.0/24"), "again")
