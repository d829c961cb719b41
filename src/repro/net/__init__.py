"""Network substrate: addresses, packets, nodes, links, forwarding, events."""

from repro.net.address import (IPV4_BITS, VN_BITS, Address, IPv4Address, Prefix,
                               VNAddress, ipv4, prefix)
from repro.net.domain import Domain, Relationship
from repro.net.errors import (AddressError, ConvergenceError, DeploymentError,
                              FaultDropError, FaultError, ForwardingError,
                              ForwardingLoopError, NoRouteError,
                              NotVnDestinationError, NoVnHandlerError,
                              RedirectionError, ReplicationError, ReproError,
                              RoutingError, SimulationError, TopologyError,
                              TTLExpiredError)
from repro.net.forwarding import (ForwardingEngine, ForwardingTrace, HopRecord,
                                  Outcome, VnDecision, VnDeliver, VnDrop, VnEgress,
                                  VnForward)
from repro.net.link import Link, LinkScope
from repro.net.lpm import PrefixTable
from repro.net.network import Network
from repro.net.node import Fib, FibEntry, Host, Node, NodeKind, Router, RouteSource
from repro.net.packet import (DEFAULT_TTL, Header, IPv4Header, Packet, VNHeader,
                              ipv4_packet, vn_packet)
from repro.net.simulator import (EventHandle, EventScheduler, MessagePerturbation,
                                 MessageStats)

__all__ = [
    "IPV4_BITS", "VN_BITS", "Address", "IPv4Address", "Prefix", "VNAddress",
    "ipv4", "prefix", "Domain", "Relationship", "AddressError",
    "ConvergenceError", "DeploymentError", "FaultDropError", "FaultError",
    "ForwardingError",
    "ForwardingLoopError", "NoRouteError", "NotVnDestinationError",
    "NoVnHandlerError", "RedirectionError", "ReplicationError", "ReproError",
    "RoutingError", "SimulationError", "TopologyError", "TTLExpiredError",
    "ForwardingEngine", "ForwardingTrace", "HopRecord", "Outcome", "VnDecision",
    "VnDeliver", "VnDrop", "VnEgress", "VnForward", "Link", "LinkScope",
    "Network", "Fib", "FibEntry", "Host", "Node", "NodeKind", "Router",
    "RouteSource", "DEFAULT_TTL", "Header", "IPv4Header", "Packet", "VNHeader",
    "ipv4_packet", "vn_packet", "EventHandle", "EventScheduler",
    "MessagePerturbation", "MessageStats", "PrefixTable",
]
