"""BGP route objects.

A :class:`BgpRoute` is an AS-level path-vector route.  Besides the
standard attributes, routes carry a :class:`RouteScope` that implements
the paper's two inter-domain anycast deployment options:

* ``ANYCAST_GLOBAL`` (Section 3.2, option 1): a non-aggregatable
  anycast prefix.  Propagating it is a *policy* decision — an ISP whose
  ``propagates_anycast`` flag is off will neither accept nor re-export
  it.
* ``ANYCAST_BILATERAL`` (Section 3.2, option 2): an anycast route a
  non-default adopter advertises to selected neighbors under an
  explicit peering agreement "to widen their reach".  It is only
  exported over agreement edges and, by default, is not re-exported by
  the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.net.address import Prefix
from repro.net.errors import ParameterError

#: Local-preference values implementing Gao-Rexford economics: routes
#: through customers are the most preferred (they pay us), then peers,
#: then providers (we pay them).
LOCAL_PREF_ORIGINATED = 200
LOCAL_PREF_CUSTOMER = 100
LOCAL_PREF_PEER = 90
LOCAL_PREF_PROVIDER = 80


class RouteScope(Enum):
    NORMAL = "normal"
    ANYCAST_GLOBAL = "anycast-global"
    ANYCAST_BILATERAL = "anycast-bilateral"

    @property
    def is_anycast(self) -> bool:
        return self is not RouteScope.NORMAL


@dataclass(frozen=True)
class BgpRoute:
    """One path-vector route as held by a speaker.

    ``as_path[0]`` is the neighbor the route was learned from (or the
    local ASN for originated routes); ``as_path[-1]`` is the origin.
    """

    prefix: Prefix
    as_path: Tuple[int, ...]
    local_pref: int = LOCAL_PREF_ORIGINATED
    scope: RouteScope = RouteScope.NORMAL
    #: ASN of the neighbor this route was learned from; None if originated.
    learned_from: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ParameterError("AS path cannot be empty")

    @property
    def origin_asn(self) -> int:
        return self.as_path[-1]

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    @property
    def originated(self) -> bool:
        return self.learned_from is None

    def contains_asn(self, asn: int) -> bool:
        return asn in self.as_path

    def prepended(self, asn: int) -> "BgpRoute":
        """The route as exported by *asn* (ASN prepended to the path)."""
        return BgpRoute(prefix=self.prefix, as_path=(asn,) + self.as_path,
                        local_pref=self.local_pref, scope=self.scope,
                        learned_from=self.learned_from)

    def selection_key(self) -> Tuple[int, int, int, int]:
        """Sort key: smaller is better (standard BGP decision process).

        Order: higher local-pref, shorter AS path, lower origin ASN,
        lower learned-from ASN (deterministic final tie-break, standing
        in for lowest-router-id).
        """
        return (-self.local_pref, self.path_length, self.origin_asn,
                self.learned_from if self.learned_from is not None else -1)

    def __str__(self) -> str:
        path = " ".join(str(asn) for asn in self.as_path)
        return (f"{self.prefix} via [{path}] pref={self.local_pref} "
                f"scope={self.scope.value}")


@dataclass(frozen=True)
class BgpUpdate:
    """One UPDATE message: an announcement or (route=None) a withdrawal."""

    sender_asn: int
    prefix: Prefix
    route: Optional[BgpRoute] = None

    @property
    def is_withdrawal(self) -> bool:
        return self.route is None
