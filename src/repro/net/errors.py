"""Exception hierarchy for the repro simulator.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An address or prefix was malformed or out of range."""


class ParameterError(ReproError, ValueError):
    """A constructor or call argument is outside its allowed range."""


class TopologyError(ReproError):
    """The network topology is inconsistent (unknown node, duplicate link...)."""


class ForwardingError(ReproError):
    """A packet could not be forwarded (no route, TTL expired, loop...)."""


class NoRouteError(ForwardingError):
    """No FIB entry matched the packet's destination."""

    def __init__(self, node_id: str, destination: object) -> None:
        super().__init__(f"no route at {node_id!r} for destination {destination}")
        self.node_id = node_id
        self.destination = destination


class TTLExpiredError(ForwardingError):
    """The packet's TTL reached zero before delivery."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"TTL expired at {node_id!r}")
        self.node_id = node_id


class ForwardingLoopError(ForwardingError):
    """The forwarding engine detected a persistent loop."""


class FaultDropError(ForwardingError):
    """The packet hit injected-fault state (down link or crashed node)."""


class NoVnHandlerError(ForwardingError):
    """The node cannot process the packet's IPvN version: the engine has
    no handler for it, or the node does not deploy it."""


class NotVnDestinationError(ForwardingError):
    """An IPvN packet reached a host that is not its destination."""


class ReplicationError(ForwardingError):
    """A replication decision was taken outside a multicast walk."""


class FaultError(ReproError):
    """A fault plan was malformed or an injector was misused."""


class RoutingError(ReproError):
    """A routing protocol was misconfigured or reached an invalid state."""


class ConvergenceError(RoutingError):
    """A protocol failed to converge within its allotted event budget."""


class DeploymentError(ReproError):
    """An IPvN deployment action was invalid (unknown domain, re-deploy...)."""


class RedirectionError(ReproError):
    """A redirection service could not answer a query."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class WorkloadError(ReproError):
    """A workload spec was violated (bad param schema, bad runner shape)."""


class TraceError(ReproError):
    """A trace file could not be read (missing, unreadable, not UTF-8)."""


class FleetError(ReproError):
    """A fleet matrix or sweep invocation was malformed."""


class MeasureError(ReproError):
    """A probe plan is malformed or references unknown nodes."""
