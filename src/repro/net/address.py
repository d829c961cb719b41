"""Addresses and prefixes for IPv4 and next-generation IPvN.

The paper's mechanisms operate on two address families:

* the ubiquitously deployed generation, modeled here as 32-bit IPv4,
* the next generation ``IPvN`` (the paper's examples use IPv8), modeled
  as a 64-bit space with a *self-addressing* convention: the top bit set
  marks an address that an endhost assigned itself by embedding its
  IPv4 address in the low 32 bits (RFC 3056-style, Section 3.3.2).

Addresses are thin, hashable, totally ordered wrappers around ints so
they can key dicts and sort deterministically.  Prefixes support
containment tests and are the keys of the longest-prefix-match tables in
:mod:`repro.net.lpm`.

Each type subclasses a ``NamedTuple`` of its fields, so ``hash``, ``==``
and ordering run in C (a flow key hashes four addresses; every FIB is
keyed by them).  ``__new__`` validates (``_make``/``_replace`` skip it:
do not use them here).  A value equals, and hashes like, the plain tuple
of its fields, as a frozen dataclass hashed; an IPv4 address (one
field) never equals an IPvN one (two).  ``<`` across families compares
field tuples instead of raising: sort one family at a time.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn, Union

from repro.net.errors import AddressError

IPV4_BITS = 32
VN_BITS = 64

#: Top bit of a VNAddress marks a self-assigned (RFC3056-style) address.
SELF_ADDRESS_FLAG = 1 << (VN_BITS - 1)

_IPV4_END, _VN_END = 1 << IPV4_BITS, 1 << VN_BITS
_tuple_new = tuple.__new__


def _reject(value: object, bits: int) -> NoReturn:
    """Raise for an address value that is not an int in ``[0, 2**bits)``."""
    if not isinstance(value, int):
        raise AddressError(f"address value must be int, got {type(value).__name__}")
    raise AddressError(f"address value {value:#x} out of range for {bits}-bit family")


class _IPv4Fields(NamedTuple):
    value: int


class IPv4Address(_IPv4Fields):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    BITS = IPV4_BITS

    def __new__(cls, value: int) -> "IPv4Address":
        if not isinstance(value, int) or not 0 <= value < _IPV4_END:
            _reject(value, IPV4_BITS)
        return _tuple_new(cls, (value,))

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``"10.0.0.1"``."""
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            try:
                octet = int(part)
            except ValueError as exc:
                raise AddressError(f"malformed IPv4 address {text!r}") from exc
            if not 0 <= octet <= 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return ".".join(str(o) for o in octets)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


class _VNFields(NamedTuple):
    value: int
    version: int = 8


class VNAddress(_VNFields):
    """An IPvN (next-generation) address: a 64-bit value plus a version tag.

    The version tag (e.g. 8 for the paper's IPv8) is carried for clarity
    in traces but does not participate in ordering beyond the value; a
    simulation runs one vN-Bone per version, so addresses of different
    versions never share a routing table.
    """

    __slots__ = ()

    BITS = VN_BITS

    def __new__(cls, value: int, version: int = 8) -> "VNAddress":
        if not isinstance(value, int) or not 0 <= value < _VN_END:
            _reject(value, VN_BITS)
        if version < 5:
            raise AddressError(f"IPvN version must be >= 5, got {version}")
        return _tuple_new(cls, (value, version))

    @property
    def is_self_assigned(self) -> bool:
        """True for a temporary self-assigned address (top bit set)."""
        return bool(self.value & SELF_ADDRESS_FLAG)

    @classmethod
    def self_assigned(cls, ipv4: IPv4Address, version: int = 8) -> "VNAddress":
        """Derive a temporary IPvN address from an IPv4 address.

        Following Section 3.3.2: one address bit indicates self
        addressing and the remaining bits are derived from the host's
        unique IPv(N-1) address.
        """
        return cls(SELF_ADDRESS_FLAG | ipv4.value, version=version)

    def embedded_ipv4(self) -> IPv4Address:
        """Recover the IPv4 address embedded in a self-assigned address."""
        if not self.is_self_assigned:
            raise AddressError(f"{self} is not self-assigned; no embedded IPv4 address")
        return IPv4Address(self.value & 0xFFFF_FFFF)

    def __str__(self) -> str:
        tag = "self" if self.is_self_assigned else "native"
        return f"v{self.version}:{self.value:016x}/{tag}"

    def __repr__(self) -> str:
        return f"VNAddress({self.value:#x}, version={self.version})"


Address = Union[IPv4Address, VNAddress]


class _PrefixFields(NamedTuple):
    address: Address
    plen: int


class Prefix(_PrefixFields):
    """A CIDR prefix over either address family.

    The family is implied by the wrapped address type.  The network
    address is canonicalized (host bits zeroed) at construction.  The
    instance dict holds only the :meth:`sort_key` memo.
    """

    def __new__(cls, address: Address, plen: int) -> "Prefix":
        bits = address.BITS
        if not 0 <= plen <= bits:
            raise AddressError(f"prefix length {plen} out of range for {bits}-bit family")
        value = address.value
        masked = value >> (bits - plen) << (bits - plen)  # host bits zeroed
        if masked != value:
            address = (IPv4Address(masked) if isinstance(address, IPv4Address)
                       else VNAddress(masked, version=address.version))
        return _tuple_new(cls, (address, plen))

    @property
    def bits(self) -> int:
        """Width of the address family in bits."""
        return self.address.BITS

    def mask(self) -> int:
        """The network mask as an int."""
        return ((1 << self.plen) - 1) << (self.address.BITS - self.plen)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` (IPv4 only; VN prefixes are built directly)."""
        addr_text, _, plen_text = text.partition("/")
        if not plen_text:
            raise AddressError(f"prefix {text!r} missing /len")
        try:
            plen = int(plen_text)
        except ValueError as exc:
            raise AddressError(f"malformed prefix length in {text!r}") from exc
        return cls(IPv4Address.parse(addr_text), plen)

    @classmethod
    def host(cls, address: Address) -> "Prefix":
        """The host route (/32 or /64) for *address*."""
        return cls(address, address.BITS)

    def contains(self, item: Union[Address, "Prefix"]) -> bool:
        """Whether *item* (an address or a more-specific prefix) falls inside."""
        if isinstance(item, Prefix):
            if type(item.address) is not type(self.address):
                return False
            if item.plen < self.plen:
                return False
            value = item.address.value
        else:
            if type(item) is not type(self.address):
                return False
            value = item.value
        return (value & self.mask()) == self.address.value

    def sort_key(self) -> str:
        """The canonical deterministic sort key — ``str(self)``, cached.

        Hot control-plane loops (Loc-RIB installation, Adj-RIB-In
        flushes, reannouncements) sort prefix collections on every
        pass; rendering the dotted-quad string each call dominated
        those sorts at scale.  The key is computed once per instance
        and memoized in the instance dict — safe because the fields are
        immutable, and equal prefixes render equal strings.
        ``sorted(prefixes, key=Prefix.sort_key)`` orders exactly like
        the historical ``key=str`` sort (the regression test in
        ``tests/net`` locks this).
        """
        memo = self.__dict__
        key = memo.get("_sort_key")
        if key is None:
            key = memo["_sort_key"] = str(self)
        return key

    def __str__(self) -> str:
        return f"{self.address}/{self.plen}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def ipv4(text_or_value: Union[str, int]) -> IPv4Address:
    """Convenience constructor: ``ipv4("10.0.0.1")`` or ``ipv4(0x0a000001)``."""
    if isinstance(text_or_value, str):
        return IPv4Address.parse(text_or_value)
    return IPv4Address(text_or_value)


def prefix(text: str) -> Prefix:
    """Convenience constructor: ``prefix("10.0.0.0/8")``."""
    return Prefix.parse(text)
