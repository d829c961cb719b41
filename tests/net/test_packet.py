"""Unit tests for packets and header encapsulation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.address import IPv4Address, VNAddress, ipv4
from repro.net.errors import ForwardingError
from repro.net.fastpath import FlowFastPath
from repro.net.network import Network
from repro.net.packet import (DEFAULT_TTL, IPv4Header, Packet, VNHeader,
                              ipv4_packet, vn_packet)


def make_vn_header(**kwargs):
    return VNHeader(src=VNAddress(1), dst=VNAddress(2), **kwargs)


class TestHeaders:
    def test_vn_decrement(self):
        header = make_vn_header(ttl=5)
        assert header.decremented().ttl == 4
        assert header.ttl == 5  # frozen original untouched

    def test_effective_dest_from_option_field(self):
        target = ipv4("9.9.9.9")
        header = make_vn_header(dest_ipv4=target)
        assert header.effective_dest_ipv4() == target

    def test_effective_dest_inferred_from_self_address(self):
        embedded = ipv4("10.4.0.3")
        header = VNHeader(src=VNAddress(1),
                          dst=VNAddress.self_assigned(embedded))
        assert header.effective_dest_ipv4() == embedded

    def test_option_field_beats_inference(self):
        option = ipv4("8.8.8.8")
        header = VNHeader(src=VNAddress(1),
                          dst=VNAddress.self_assigned(ipv4("10.0.0.1")),
                          dest_ipv4=option)
        assert header.effective_dest_ipv4() == option

    def test_native_dst_without_option_has_no_dest(self):
        assert make_vn_header().effective_dest_ipv4() is None

    def test_version_from_dst(self):
        header = VNHeader(src=VNAddress(1, version=9), dst=VNAddress(2, version=9))
        assert header.version == 9


#: A non-default value for every header field.  A field added later has
#: no sample here, so the test below fails until it gets one — and then
#: checks that the hand-written copy methods carry it.
_FIELD_SAMPLES = {
    VNHeader: dict(src=VNAddress(1), dst=VNAddress(2), ttl=7,
                   dest_ipv4=ipv4("9.9.9.9"), mcast_downstream=True),
}


@pytest.mark.parametrize("cls, method, changed", [
    (VNHeader, "decremented", lambda h: {"ttl": h.ttl - 1}),
    (VNHeader, "marked_downstream", lambda h: {"mcast_downstream": True}),
])
def test_copy_methods_carry_every_field(cls, method, changed):
    samples = _FIELD_SAMPLES[cls]
    assert set(samples) == set(cls._fields)
    for name in cls._fields:
        assert samples[name] != cls._field_defaults.get(name), (
            f"{name} sample is the default")
    full = cls(**samples)
    # ... and once more with the fields the method writes at their defaults.
    plain = full._replace(**{name: cls._field_defaults[name]
                             for name in changed(full)})
    for header in (full, plain):
        copied = getattr(header, method)()
        assert type(copied) is cls
        assert copied == header._replace(**changed(header))


class TestHeaderRendering:
    """``str()`` of a header is what hop details print into traces."""

    @pytest.mark.parametrize("header, text", [
        (IPv4Header(ipv4("10.0.0.1"), ipv4("10.2.0.9")),
         "IPv4[10.0.0.1 -> 10.2.0.9 ttl=64]"),
        (IPv4Header(ipv4("10.0.0.1"), ipv4("10.2.0.9"), 3, "udp"),
         "IPv4[10.0.0.1 -> 10.2.0.9 ttl=3]"),
        (VNHeader(VNAddress(1), VNAddress(0x2a)),
         "IPv8[v8:0000000000000001/native -> v8:000000000000002a/native"
         " ttl=64]"),
        (VNHeader(VNAddress(1), VNAddress.self_assigned(ipv4("10.2.0.9")),
                  5, ipv4("10.2.0.9"), True),
         "IPv8[v8:0000000000000001/native -> v8:800000000a020009/self"
         " ttl=5]"),
        (VNHeader(VNAddress(1, version=9), VNAddress(2, version=9),
                  dest_ipv4=ipv4("10.2.0.9")),
         "IPv9[v9:0000000000000001/native -> v9:0000000000000002/native"
         " ttl=64]"),
    ])
    def test_str(self, header, text):
        assert str(header) == text
        assert f"now {header}" == f"now {text}"  # how hop details word it


#: Small field domains, so drawn stacks often coincide.
_V4 = st.sampled_from([ipv4("10.0.0.1"), ipv4("10.0.0.2")])
_VN = st.sampled_from([VNAddress(1), VNAddress(2),
                       VNAddress.self_assigned(ipv4("10.0.0.1"))])
_TTL = st.sampled_from([63, 64])
_HEADERS = st.one_of(
    st.builds(IPv4Header, _V4, _V4, _TTL, st.sampled_from(["ip", "udp"])),
    st.builds(VNHeader, _VN, _VN, _TTL,
              st.sampled_from([None, ipv4("10.0.0.1")]), st.booleans()))
_STACKS = st.lists(_HEADERS, min_size=1, max_size=3)


def _field_oracle(stack):
    return [(type(header).__name__,
             *(getattr(header, name) for name in header._fields))
            for header in stack]


@given(st.data())
def test_flow_keys_match_exactly_when_stacks_do(data):
    """The fast path's flow is exact-match, header family included: two
    keys are equal (and hash equal) iff the stacks agree field by field
    and kind by kind."""
    first = data.draw(_STACKS)
    second = data.draw(st.one_of(
        st.just([header._replace() for header in first]), _STACKS))
    start = data.draw(st.sampled_from(["a", "b"]))
    other_start = data.draw(st.sampled_from(["a", "b"]))
    fastpath = FlowFastPath(Network())
    key = fastpath.key_for(Packet(first), start)
    other = fastpath.key_for(Packet(second), other_start)
    same = (start == other_start
            and _field_oracle(first) == _field_oracle(second))
    assert (key == other) is same
    if same:
        assert hash(key) == hash(other)


class TestPacket:
    def test_needs_a_header(self):
        with pytest.raises(ForwardingError):
            Packet(headers=[])

    def test_encapsulate_changes_outer(self):
        packet = vn_packet(VNAddress(1), VNAddress(2))
        inner = packet.outer
        outer = IPv4Header(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2"))
        packet.encapsulate(outer)
        assert packet.outer is outer
        assert packet.headers[0] is inner
        assert packet.depth == 2

    def test_decapsulate_restores_inner(self):
        packet = vn_packet(VNAddress(1), VNAddress(2))
        outer = IPv4Header(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2"))
        packet.encapsulate(outer)
        popped = packet.decapsulate()
        assert popped is outer
        assert packet.depth == 1

    def test_cannot_pop_last_header(self):
        packet = ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"))
        with pytest.raises(ForwardingError):
            packet.decapsulate()

    def test_vn_header_finds_topmost_vn(self):
        packet = vn_packet(VNAddress(1), VNAddress(2))
        packet.encapsulate(IPv4Header(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2")))
        found = packet.vn_header()
        assert found is not None and found.dst == VNAddress(2)

    def test_vn_header_none_for_plain_ipv4(self):
        assert ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2")).vn_header() is None

    def test_replace_outer(self):
        packet = ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"), ttl=5)
        packet.replace_outer(IPv4Header(ipv4("1.1.1.1"), ipv4("2.2.2.2"), 4))
        assert packet.outer.ttl == 4 and packet.depth == 1

    def test_copy_is_independent(self):
        packet = vn_packet(VNAddress(1), VNAddress(2))
        clone = packet.copy()
        clone.encapsulate(IPv4Header(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2")))
        assert packet.depth == 1
        assert clone.depth == 2
        assert clone.packet_id == packet.packet_id

    def test_packet_ids_unique(self):
        a = ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"))
        b = ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2"))
        assert a.packet_id != b.packet_id

    def test_default_ttl(self):
        assert ipv4_packet(ipv4("1.1.1.1"), ipv4("2.2.2.2")).outer.ttl == DEFAULT_TTL

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=1, max_size=6))
    def test_encap_decap_stack_property(self, values):
        packet = vn_packet(VNAddress(1), VNAddress(2))
        headers = [IPv4Header(src=IPv4Address(v), dst=IPv4Address(v)) for v in values]
        for header in headers:
            packet.encapsulate(header)
        for header in reversed(headers):
            assert packet.decapsulate() is header
        assert packet.depth == 1
