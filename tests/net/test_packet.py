"""Unit tests for packets and header encapsulation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.address import IPv4Address, VNAddress, ipv4
from repro.net.errors import ForwardingError
from repro.net.packet import (DEFAULT_TTL, IPv4Header, Packet, VNHeader,
                              ipv4_packet, vn_packet)


def make_vn_header(**kwargs):
    return VNHeader(src=VNAddress(1), dst=VNAddress(2), **kwargs)


class TestHeaders:
    def test_ipv4_decrement(self):
        header = IPv4Header(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2"), ttl=10)
        assert header.decremented().ttl == 9
        assert header.ttl == 10  # frozen original untouched

    def test_vn_decrement(self):
        assert make_vn_header(ttl=5).decremented().ttl == 4

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
    IPv4Header: dict(src=ipv4("1.1.1.1"), dst=ipv4("2.2.2.2"), ttl=7,
                     protocol="udp"),
    VNHeader: dict(src=VNAddress(1), dst=VNAddress(2), ttl=7,
                   dest_ipv4=ipv4("9.9.9.9"), mcast_downstream=True),
}


@pytest.mark.parametrize("cls, method, changed", [
    (IPv4Header, "decremented", lambda h: {"ttl": h.ttl - 1}),
    (VNHeader, "decremented", lambda h: {"ttl": h.ttl - 1}),
    (VNHeader, "marked_downstream", lambda h: {"mcast_downstream": True}),
])
def test_copy_methods_carry_every_field(cls, method, changed):
    samples = _FIELD_SAMPLES[cls]
    fields = dataclasses.fields(cls)
    assert set(samples) == {f.name for f in fields}
    for f in fields:
        assert samples[f.name] != f.default, f"{f.name} sample is the default"
    full = cls(**samples)
    # ... and once more with the fields the method writes at their defaults.
    plain = dataclasses.replace(full, **{
        f.name: f.default for f in fields if f.name in changed(full)})
    for header in (full, plain):
        assert (getattr(header, method)()
                == dataclasses.replace(header, **changed(header)))


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
        assert packet.inner is inner
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
        packet.replace_outer(packet.outer.decremented())
        assert packet.outer.ttl == 4

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
