"""``json_safe`` renders value records by ``str()``.

Addresses, prefixes and packet headers are tuples underneath
(``NamedTuple`` subclasses), but a report or trace event shows them as
the strings traces print, as it did when they were dataclasses — not
as lists of their fields.
"""

import pytest

from repro.net.address import IPv4Address, Prefix, VNAddress, ipv4
from repro.net.packet import IPv4Header, VNHeader
from repro.obs import Tracer, json_safe

_V4 = ipv4("1.2.3.4")
_VN = VNAddress.self_assigned(_V4)


@pytest.mark.parametrize("value, text", [
    (_V4, "1.2.3.4"),
    (VNAddress(7, version=9), "v9:0000000000000007/native"),
    (_VN, "v8:8000000001020304/self"),
    (Prefix.parse("10.0.0.0/8"), "10.0.0.0/8"),
    (Prefix.host(VNAddress(5)), "v8:0000000000000005/native/64"),
    (IPv4Header(_V4, ipv4("5.6.7.8")), "IPv4[1.2.3.4 -> 5.6.7.8 ttl=64]"),
    (VNHeader(_VN, VNAddress(2), 3),
     "IPv8[v8:8000000001020304/self -> v8:0000000000000002/native ttl=3]"),
])
def test_a_value_record_renders_by_str(value, text):
    assert json_safe(value) == text
    assert json_safe([value, (value,)]) == [text, [text]]
    assert json_safe({value: value}) == {text: text}
    assert json_safe({value}) == [text]


def test_plain_tuples_and_lists_still_become_lists():
    assert json_safe((1, (2, "x"), [3.5])) == [1, [2, "x"], [3.5]]


def test_a_traced_event_carries_the_address_strings():
    tracer = Tracer()
    tracer.emit("send", src=_V4, dst=IPv4Address(0x05060708),
                route=Prefix.parse("5.6.0.0/16"), hops=[_V4])
    tracer.close()
    event = tracer.events()[1]
    assert (event["src"], event["dst"], event["route"], event["hops"]) == (
        "1.2.3.4", "5.6.7.8", "5.6.0.0/16", ["1.2.3.4"])
