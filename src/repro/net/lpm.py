"""Length-bucketed hash table for longest-prefix-match lookups.

This is the forwarding-table data structure used by every router in the
simulator, for both the IPv4 family (32-bit keys) and the IPvN family
(64-bit keys).  It holds one ``dict`` per *installed* prefix length,
keyed by the prefix's significant bits (``network >> (bits - plen)``);
a lookup probes the installed lengths longest first, so it costs one
dict probe per installed length — a handful in any simulated FIB — and
none per address bit.

The table maps :class:`~repro.net.address.Prefix` keys to arbitrary
values and answers:

* exact lookups (:meth:`PrefixTable.get`, ``in``),
* longest-prefix matches for an address (:meth:`PrefixTable.lookup`),
* iteration over installed (prefix, value) pairs in key order
  (:meth:`PrefixTable.items`).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.address import Address, Prefix
from repro.net.errors import AddressError

V = TypeVar("V")


class PrefixTable(Generic[V]):
    """A longest-prefix-match table over one address family.

    Parameters
    ----------
    bits:
        Width of the address family (32 for IPv4, 64 for IPvN).  All
        prefixes inserted must belong to a family of this width.
    """

    def __init__(self, bits: int) -> None:
        self._bits = bits
        #: plen -> {significant bits -> (prefix, value)}; a length is
        #: present only while at least one prefix of it is installed.
        self._buckets: Dict[int, Dict[int, Tuple[Prefix, V]]] = {}
        #: (bits - plen, bucket) of every installed length, longest
        #: first: the probe order of :meth:`lookup`.
        self._probes: List[Tuple[int, Dict[int, Tuple[Prefix, V]]]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _key(self, pfx: Prefix) -> int:
        """The significant bits of *pfx*: its key in its length's dict."""
        if pfx.bits != self._bits:
            raise AddressError(
                f"prefix {pfx} belongs to a {pfx.bits}-bit family; table is {self._bits}-bit")
        return pfx.address.value >> (self._bits - pfx.plen)

    def _reindex(self) -> None:
        self._probes = [(self._bits - plen, self._buckets[plen])
                        for plen in sorted(self._buckets, reverse=True)]

    def insert(self, pfx: Prefix, value: V) -> None:
        """Install *value* under *pfx*, replacing any previous value."""
        key = self._key(pfx)
        bucket = self._buckets.get(pfx.plen)
        if bucket is None:
            bucket = self._buckets[pfx.plen] = {}
            self._reindex()
        if key not in bucket:
            self._size += 1
        bucket[key] = (pfx, value)

    def remove(self, pfx: Prefix) -> V:
        """Remove and return the value under *pfx*.

        Raises ``KeyError`` if the exact prefix is not installed.  A
        length whose last prefix goes is dropped from the probe order,
        so repeated insert/remove cycles do not leak.
        """
        key = self._key(pfx)
        bucket = self._buckets.get(pfx.plen)
        if bucket is None or key not in bucket:
            raise KeyError(pfx)
        _, value = bucket.pop(key)
        self._size -= 1
        if not bucket:
            del self._buckets[pfx.plen]
            self._reindex()
        return value

    def get(self, pfx: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup of an installed prefix."""
        key = self._key(pfx)
        bucket = self._buckets.get(pfx.plen)
        hit = None if bucket is None else bucket.get(key)
        return default if hit is None else hit[1]

    def __contains__(self, pfx: Prefix) -> bool:
        key = self._key(pfx)
        bucket = self._buckets.get(pfx.plen)
        return bucket is not None and key in bucket

    def lookup(self, address: Address) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for *address*; ``None`` if nothing matches."""
        if address.BITS != self._bits:
            raise AddressError(
                f"address {address} belongs to a {address.BITS}-bit family; "
                f"table is {self._bits}-bit")
        value = address.value
        for shift, bucket in self._probes:
            hit = bucket.get(value >> shift)
            if hit is not None:
                return hit
        return None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate installed (prefix, value) pairs in key order:
        ascending network address, shorter prefix first on a tie."""
        rows = [hit for _, bucket in self._probes for hit in bucket.values()]
        rows.sort(key=lambda hit: (hit[0].address.value, hit[0].plen))
        return iter(rows)
