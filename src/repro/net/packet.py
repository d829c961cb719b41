"""Packets and header encapsulation.

A simulated packet is a stack of headers over an opaque payload.  The
outermost header (index -1) is the one routers act on.  The paper's
delivery path nests up to three layers::

    IPv4(host -> anycast A_N)            # host encapsulation, Section 3.1
      IPvN(src -> dst)                   # the next-generation packet
        <payload>

and, inside the vN-Bone, per-virtual-hop tunnels::

    IPv4(vN router -> vN neighbor)       # vN-Bone tunnel, Section 3.4
      IPvN(src -> dst)
        <payload>

The IPvN header carries an optional ``dest_ipv4`` field — the paper's
"separate option field in the IPvN header" used for egress selection
when the destination sits in a non-IPvN domain (Section 3.3.2).

Headers are ``NamedTuple`` classes: building, hashing and comparing one
runs in C, and every host send builds two, every IPvN hop one
(:meth:`VNHeader.decremented`), every IPv4 segment one (the forwarding
engine carries the TTL in a local from router to router and writes the
header back once) and every flow-key lookup hashes and compares a whole
stack.  A header therefore equals the plain tuple of its fields.  An
IPv4 header (four fields) never equals an IPvN header (five), and a
stack holds only headers, so a stack comparison is exact, header kind
included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Union

from repro.net.address import IPv4Address, VNAddress
from repro.net.errors import ForwardingError
from repro.obs import SpanContext

DEFAULT_TTL = 64

_packet_ids = itertools.count(1)


class IPv4Header(NamedTuple):
    """An IPv(N-1) header; the ubiquitously deployed generation."""

    src: IPv4Address
    dst: IPv4Address
    ttl: int = DEFAULT_TTL
    protocol: str = "ip"

    def __str__(self) -> str:
        return f"IPv4[{self.src} -> {self.dst} ttl={self.ttl}]"


class VNHeader(NamedTuple):
    """A next-generation IPvN header.

    ``dest_ipv4`` is the optional field carrying the destination's
    IPv(N-1) address for destinations outside the vN-Bone; for
    self-assigned destination addresses it can instead be inferred from
    the address itself (:meth:`effective_dest_ipv4`).

    ``mcast_downstream`` supports the multicast IPvN instantiation
    (:mod:`repro.vnbone.multicast`): it plays the role PIM-SM's
    register/decapsulated distinction plays — clear while the packet
    travels from its source towards the group's core, set once the core
    starts distribution down the shared tree.
    """

    src: VNAddress
    dst: VNAddress
    ttl: int = DEFAULT_TTL
    dest_ipv4: Optional[IPv4Address] = None
    mcast_downstream: bool = False

    def decremented(self) -> "VNHeader":
        """A copy with TTL reduced by one."""
        return VNHeader(self.src, self.dst, self.ttl - 1, self.dest_ipv4,
                        self.mcast_downstream)

    def marked_downstream(self) -> "VNHeader":
        """A copy with the multicast distribution flag set."""
        return VNHeader(self.src, self.dst, self.ttl, self.dest_ipv4, True)

    def effective_dest_ipv4(self) -> Optional[IPv4Address]:
        """The destination's IPv4 address, from the option field or the
        self-assigned destination address; ``None`` if neither applies."""
        if self.dest_ipv4 is not None:
            return self.dest_ipv4
        if self.dst.is_self_assigned:
            return self.dst.embedded_ipv4()
        return None

    @property
    def version(self) -> int:
        return self.dst.version

    def __str__(self) -> str:
        return f"IPv{self.dst.version}[{self.src} -> {self.dst} ttl={self.ttl}]"


Header = Union[IPv4Header, VNHeader]


@dataclass(slots=True)
class Packet:
    """A simulated packet: a header stack over an opaque payload.

    The *outermost* header — the one forwarding acts on — is
    ``headers[-1]``.  Encapsulation pushes, decapsulation pops.
    """

    headers: List[Header] = field(default_factory=list)
    payload: object = None
    packet_id: int = field(default_factory=_packet_ids.__next__)
    #: Causal span context the packet is traveling under (set by the
    #: forwarding engine when spans are enabled; survives copies, so
    #: encap/decap replicas stay in the originating trace).
    span: Optional[SpanContext] = None

    def __post_init__(self) -> None:
        if not self.headers:
            raise ForwardingError("a packet needs at least one header")

    @property
    def outer(self) -> Header:
        """The outermost (active) header."""
        return self.headers[-1]

    @property
    def inner(self) -> Header:
        """The innermost header (the original end-to-end header)."""
        return self.headers[0]

    @property
    def depth(self) -> int:
        """Number of stacked headers (1 = not encapsulated)."""
        return len(self.headers)

    def encapsulate(self, header: Header) -> None:
        """Push a new outer header (tunnel entry)."""
        self.headers.append(header)

    def decapsulate(self) -> Header:
        """Pop and return the outer header (tunnel exit).

        Raises :class:`ForwardingError` if only one header remains —
        popping it would leave a headerless packet.
        """
        if len(self.headers) == 1:
            raise ForwardingError("cannot decapsulate the last header")
        return self.headers.pop()

    def replace_outer(self, header: Header) -> None:
        """Swap the outer header in place (used for TTL decrements)."""
        self.headers[-1] = header

    def vn_header(self) -> Optional[VNHeader]:
        """The topmost IPvN header in the stack, if any."""
        for header in reversed(self.headers):
            if isinstance(header, VNHeader):
                return header
        return None

    def copy(self) -> "Packet":
        """A shallow copy with its own header stack (headers are
        immutable)."""
        return Packet(headers=list(self.headers), payload=self.payload,
                      packet_id=self.packet_id, span=self.span)

    def __str__(self) -> str:
        stack = " | ".join(str(h) for h in reversed(self.headers))
        return f"Packet#{self.packet_id}({stack})"


def ipv4_packet(src: IPv4Address, dst: IPv4Address, payload: object = None,
                ttl: int = DEFAULT_TTL) -> Packet:
    """Build a plain IPv4 packet."""
    return Packet([IPv4Header(src, dst, ttl)], payload)


def vn_packet(src: VNAddress, dst: VNAddress, payload: object = None,
              ttl: int = DEFAULT_TTL, dest_ipv4: Optional[IPv4Address] = None) -> Packet:
    """Build a bare IPvN packet (not yet encapsulated for the anycast hop)."""
    return Packet([VNHeader(src, dst, ttl, dest_ipv4)], payload)
