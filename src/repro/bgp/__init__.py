"""Inter-domain path-vector routing (BGP) with anycast-aware policy."""

from repro.bgp.egress import EgressCache
from repro.bgp.policy import BgpPolicy, BilateralAgreements, local_pref_for
from repro.bgp.protocol import SESSION_DELAY, BgpProtocol, BgpSpeaker
from repro.bgp.routes import (LOCAL_PREF_CUSTOMER, LOCAL_PREF_ORIGINATED,
                              LOCAL_PREF_PEER, LOCAL_PREF_PROVIDER, BgpRoute,
                              BgpUpdate, RouteScope)

__all__ = ["BgpPolicy", "BilateralAgreements", "local_pref_for", "SESSION_DELAY",
           "BgpProtocol", "BgpSpeaker", "EgressCache", "LOCAL_PREF_CUSTOMER",
           "LOCAL_PREF_ORIGINATED", "LOCAL_PREF_PEER", "LOCAL_PREF_PROVIDER",
           "BgpRoute", "BgpUpdate", "RouteScope"]
