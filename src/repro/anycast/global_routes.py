"""Inter-domain anycast, option 1: non-aggregatable addresses, global routes.

Section 3.2: "designate a portion of the regular unicast address space
to serve as anycast addresses and require that ISPs propagate route
advertisements for anycast addresses in their inter-domain routing
protocols."

Every domain with at least one member *originates* the anycast host
route into BGP; standard path-vector selection then steers each AS
toward its policy-closest originating domain.  Propagation is a policy
change: domains whose ``propagates_anycast`` flag is off neither accept
nor re-export these routes (they did not make the policy change), which
is exactly the deployment concern that motivates option 2.
"""

from __future__ import annotations

from repro.net.address import IPv4Address, Prefix
from repro.net.errors import DeploymentError
from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from repro.anycast.service import AnycastScheme

#: The designated anycast portion of the unicast space (class-E-like,
#: guaranteed disjoint from domain blocks which the generators draw from
#: 10.0.0.0/8 and 172.16.0.0/12).
ANYCAST_POOL = Prefix(IPv4Address.parse("240.0.0.0"), 8)


class AnycastAddressPool:
    """Sequential allocator over the designated anycast block."""

    def __init__(self, pool: Prefix = ANYCAST_POOL) -> None:
        self.pool = pool
        self._next = pool.address.value + 1

    def allocate(self) -> IPv4Address:
        limit = self.pool.address.value + (1 << (32 - self.pool.plen))
        if self._next >= limit:
            raise DeploymentError(f"anycast pool {self.pool} exhausted")
        address = IPv4Address(self._next)
        self._next += 1
        return address


class GlobalAnycast(AnycastScheme):
    """Option 1: every member domain originates the anycast prefix in BGP."""

    def __init__(self, orchestrator: Orchestrator, name: str,
                 pool: AnycastAddressPool = None) -> None:  # type: ignore[assignment]
        super().__init__(orchestrator, name)
        self._pool = pool if pool is not None else AnycastAddressPool()

    def allocate_address(self) -> IPv4Address:
        return self._pool.allocate()

    def on_domain_joined(self, asn: int) -> None:
        self.orchestrator.bgp.originate(asn, Prefix.host(self.address),
                                        scope=RouteScope.ANYCAST_GLOBAL)

    def on_domain_left(self, asn: int) -> None:
        self.orchestrator.bgp.withdraw(asn, Prefix.host(self.address))
