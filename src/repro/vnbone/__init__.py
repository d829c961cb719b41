"""vN-Bone virtual networks: topology, routing, addressing, egress (Section 3.3)."""

from repro.vnbone.addressing import VnAddressPlan
from repro.vnbone.deployment import VnDeployment, adoption_rng
from repro.vnbone.egress import (EGRESS_AS_HOP_COST, EgressPolicy, HostRegistry,
                                 external_owner_entries, proxies_for_domain)
from repro.vnbone.bgpvn import BgpVnRoute, BgpVnSolver, LayeredVnRouting
from repro.vnbone.mobility import MobilityService, MoveRecord
from repro.vnbone.multicast import (VN_MULTICAST_FLAG, GroupState, McastEntry,
                                    VnMulticastService, enable_multicast,
                                    group_address, is_multicast)
from repro.vnbone.routing import OwnerEntry, VnRouting, make_vn_handler
from repro.vnbone.state import (VnAction, VnFib, VnFibEntry, VnRouterState,
                                native_domain_prefix, vn_prefix_for_ipv4)
from repro.vnbone.topology import VnBoneTopology, VnTunnel

__all__ = ["VnAddressPlan", "VnDeployment", "adoption_rng",
           "EGRESS_AS_HOP_COST", "EgressPolicy",
           "BgpVnRoute", "BgpVnSolver", "LayeredVnRouting", "MobilityService",
           "MoveRecord",
           "VN_MULTICAST_FLAG", "GroupState", "McastEntry", "VnMulticastService",
           "enable_multicast", "group_address", "is_multicast",
           "HostRegistry", "external_owner_entries", "proxies_for_domain",
           "OwnerEntry", "VnRouting", "make_vn_handler", "VnAction", "VnFib",
           "VnFibEntry", "VnRouterState", "native_domain_prefix",
           "vn_prefix_for_ipv4", "VnBoneTopology", "VnTunnel"]
