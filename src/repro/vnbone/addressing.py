"""IPvN address allocation, self-addressing, and relabeling.

Section 3.3.2 distinguishes two kinds of endhost IPvN addresses:

* **native** addresses, allocated and advertised by an adopting access
  provider out of its IPvN block (here ``asn << 32``, see
  :func:`repro.vnbone.state.native_domain_prefix`);
* **temporary self-assigned** addresses for hosts whose provider has
  not adopted IPvN: one flag bit plus the host's unique IPv(N-1)
  address (RFC 3056-style).

Self-addresses are "very likely temporary and such endhosts will have
to relabel if and when their access providers do adopt IPvN" — the
:class:`VnAddressPlan` performs that relabeling and counts the events,
which experiment F1 uses to show the *anycast* part of the design needs
no endhost reconfiguration at all (relabeling is an addressing matter,
not a redirection one).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import Prefix, VNAddress
from repro.net.domain import Domain
from repro.net.errors import AddressError, DeploymentError
from repro.net.network import Network
from repro.net.node import Host
from repro.vnbone.state import native_domain_prefix


class VnAddressPlan:
    """Tracks IPvN address assignment for one deployment version."""

    def __init__(self, network: Network, version: int = 8) -> None:
        self.network = network
        self.version = version
        self._next_suffix: Dict[int, int] = {}
        self._assigned: Dict[str, VNAddress] = {}
        self._pinned: Set[str] = set()
        #: host id -> (host, address, domain id, domain, adopted), what
        #: :meth:`resolve` answered; dropped when the plan writes the host.
        self._resolved: Dict[str, Tuple[Host, VNAddress, int, Domain, bool]] = {}
        self.relabel_events: List[str] = []

    # -- pinning (mobility) -----------------------------------------------------
    def pin_address(self, host_id: str) -> VNAddress:
        """Freeze *host_id*'s current IPvN address across domain moves.

        Mobility's point: the IPvN address is the host's stable
        identity; relabeling rules must not touch it while pinned.
        """
        address = self.ensure_host_address(host_id)
        self._pinned.add(host_id)
        self._resolved.pop(host_id, None)
        return address

    # -- native allocation ---------------------------------------------------
    def native_prefix(self, asn: int) -> Prefix:
        return native_domain_prefix(asn, version=self.version)

    def allocate_native(self, asn: int) -> VNAddress:
        """The next native address from AS *asn*'s IPvN block."""
        if asn not in self.network.domains:
            raise DeploymentError(f"unknown domain AS{asn}")
        suffix = self._next_suffix.get(asn, 1)
        if suffix >= (1 << 32):
            raise AddressError(f"AS{asn} exhausted its native IPvN block")
        self._next_suffix[asn] = suffix + 1
        return VNAddress((asn << 32) | suffix, version=self.version)

    # -- host addressing -------------------------------------------------------
    def address_of(self, host_id: str) -> Optional[VNAddress]:
        return self._assigned.get(host_id)

    def ensure_host_address(self, host_id: str) -> VNAddress:
        """Give *host_id* an IPvN address appropriate to its domain.

        Native if the host's domain has adopted IPvN, self-assigned
        otherwise.  Idempotent; existing assignments of the right kind
        are kept.
        """
        return self.host_address(self._require_host(host_id))

    def host_address(self, host: Host) -> VNAddress:
        """:meth:`ensure_host_address` for a caller that already holds
        the host node."""
        host_id = host.node_id
        domain = self.network.domains[host.domain_id]
        adopted = domain.deploys(self.version)
        current = self._assigned.get(host_id)
        if current is not None and host_id in self._pinned:
            return current
        if current is not None:
            if adopted and current.is_self_assigned:
                return self._relabel(host, native=True)
            if not adopted and not current.is_self_assigned:
                return self._relabel(host, native=False)
            return current
        return self._assign(host, native=adopted)

    def resolve(self, host_id: str) -> Tuple[Host, VNAddress]:
        """``(host, host_address(host))``, reused until the plan writes the
        host (``_assign``, :meth:`pin_address`) or either input of the
        lazy relabel moves: the host's domain, or its adoption."""
        entry = self._resolved.get(host_id)
        if entry is not None:
            host, address, asn, domain, adopted = entry
            if (host.domain_id == asn
                    and (self.version in domain.deployed_versions) is adopted):
                return host, address
        host = self._require_host(host_id)
        address = self.host_address(host)
        domain = self.network.domains[host.domain_id]
        self._resolved[host_id] = (host, address, host.domain_id, domain,
                                   domain.deploys(self.version))
        return host, address

    def _assign(self, host: Host, native: bool) -> VNAddress:
        if native:
            address = self.allocate_native(host.domain_id)
        else:
            address = VNAddress.self_assigned(host.ipv4, version=self.version)
        host.assign_vn_address(address)
        self._assigned[host.node_id] = address
        self._resolved.pop(host.node_id, None)
        return address

    def _relabel(self, host: Host, native: bool) -> VNAddress:
        self.relabel_events.append(host.node_id)
        return self._assign(host, native=native)

    def relabel_domain(self, asn: int) -> int:
        """Re-address every assigned host of a domain that just adopted
        (or un-adopted) IPvN.  Returns the number of relabel events."""
        before = len(self.relabel_events)
        for host_id in sorted(self.network.domains[asn].hosts):
            if host_id in self._assigned:
                self.ensure_host_address(host_id)
        return len(self.relabel_events) - before

    def _require_host(self, host_id: str) -> Host:
        node = self.network.node(host_id)
        if not isinstance(node, Host):
            raise DeploymentError(f"{host_id!r} is not a host")
        return node
