"""The hop-by-hop forwarding engine.

This walks a packet through the network exactly the way the paper's
data plane works:

1. Plain IPv4 forwarding by longest-prefix match at every router.
2. Local delivery when a node *accepts* the outer destination — which
   is how anycast delivery happens: every IPvN router accepts the
   deployment's anycast address, so whichever IPvN router the unicast
   routing reaches first strips the outer header (Section 3.1).
3. After decapsulation, an IPvN header is handed to the node's *vN
   handler* (installed by :mod:`repro.vnbone`).  The handler decides to
   deliver, forward to a vN-Bone neighbor (the engine re-encapsulates
   in IPv4 towards that neighbor — a vN-Bone tunnel), or exit the
   vN-Bone towards an IPv4 destination (Section 3.4).

The engine never raises on routing failures during an experiment run:
it returns a :class:`ForwardingTrace` whose :class:`Outcome` and hop
records the experiments inspect.  Pass ``strict=True`` to raise
instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.net.address import IPv4Address
from repro.net.errors import (FaultDropError, ForwardingError,
                              ForwardingLoopError, NoRouteError,
                              NotVnDestinationError, NoVnHandlerError,
                              ReplicationError, TTLExpiredError)
from repro.net.fastpath import FlowFastPath, FlowKey
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import IPv4Header, Packet, VNHeader
from repro.obs import Counter, Observability, get_obs

DEFAULT_MAX_STEPS = 4096


class Outcome(Enum):
    """Terminal state of a forwarding walk."""

    DELIVERED = "delivered"
    NO_ROUTE = "no-route"
    TTL_EXPIRED = "ttl-expired"
    LOOP = "loop"
    NO_VN_HANDLER = "no-vn-handler"
    DROPPED = "dropped"
    #: The packet hit injected-fault state: a down link still in a FIB,
    #: or a crashed node.  Distinct from NO_ROUTE so experiments can
    #: separate transient fault loss from genuine routing holes.
    FAULT_DROPPED = "fault-dropped"
    #: The branch ended by forking into copies (multicast walks only).
    REPLICATED = "replicated"


# -- vN handler protocol -----------------------------------------------------

@dataclass(frozen=True)
class VnDeliver:
    """The IPvN destination is this node."""


@dataclass(frozen=True)
class VnForward:
    """Tunnel the packet to a vN-Bone neighbor (IPv4 encapsulation)."""

    next_vn_hop: str


@dataclass(frozen=True)
class VnEgress:
    """Exit the vN-Bone: send the IPvN packet inside IPv4 to *ipv4_dst*."""

    ipv4_dst: IPv4Address


@dataclass(frozen=True)
class VnDrop:
    """Drop the packet (no vN route, policy, ...)."""

    reason: str


@dataclass(frozen=True)
class VnEncap:
    """Push another IPvN header (vN-in-vN tunnel, e.g. multicast
    register towards the group core) and keep processing here."""

    header: "object"  # a VNHeader; typed loosely to avoid an import cycle


@dataclass(frozen=True)
class VnReplicate:
    """Fork the packet into several copies (multicast distribution).

    ``mark_downstream`` stamps the copies' IPvN header with the
    distribution flag (done once, by the group's core).  Only the
    multicast walk (:meth:`ForwardingEngine.forward_multicast`) accepts
    this decision; the unicast walk treats it as a drop.
    """

    copies: Tuple[Union[VnForward, VnEgress], ...]
    mark_downstream: bool = False


VnDecision = Union[VnDeliver, VnForward, VnEgress, VnDrop, VnEncap, VnReplicate]
VnHandler = Callable[[Node, Packet], VnDecision]


@dataclass(slots=True)
class HopRecord:
    """One step of the walk, for inspection and pretty traces.

    A view: :class:`ForwardingTrace` keeps a compact hop log and renders
    these on read (:attr:`ForwardingTrace.hops`).
    """

    node_id: str
    domain_id: int
    action: str
    detail: str = ""
    depth: int = 1
    #: True when this hop's action was caused by injected-fault state.
    faulted: bool = False
    #: Cumulative sim-time latency (sum of :attr:`Link.delay` over the
    #: links crossed so far) at the moment this hop was recorded.
    latency: float = 0.0

    def format(self) -> str:
        """The single rendering of a hop.

        Both ``ForwardingTrace.__str__`` and the JSONL event form
        (:meth:`to_dict`'s ``rendered`` field) use this helper, so the
        ``[depth=N]``, ``[fault]`` and ``[lat=T]`` annotations can never
        diverge between the pretty trace and the machine-readable one.
        The latency annotation only appears once delay has accumulated,
        so hops before the first link crossing render exactly as they
        did under trace schema v2.
        """
        extra = f" ({self.detail})" if self.detail else ""
        depth = f" [depth={self.depth}]" if self.depth > 1 else ""
        fault = " [fault]" if self.faulted else ""
        lat = f" [lat={self.latency:g}]" if self.latency > 0 else ""
        return (f"{self.node_id}[AS{self.domain_id}] "
                f"{self.action}{extra}{depth}{fault}{lat}")

    def __str__(self) -> str:
        return self.format()

    def to_dict(self) -> Dict[str, object]:
        return {"node": self.node_id, "domain": self.domain_id,
                "action": self.action, "detail": self.detail,
                "depth": self.depth, "faulted": self.faulted,
                "latency": self.latency,
                "rendered": self.format()}


#: The one action recorded on injected-fault state (a crashed node, a
#: down link still in a FIB).
FAULT_ACTION = "fault-drop"

#: How each action words its hop detail from the *subject* the walk had
#: in hand when it recorded the hop; any other action's subject renders
#: through ``str``.
_DETAIL: Dict[str, Callable[[Any], str]] = {
    # subject: the matched FibEntry
    "ipv4-forward": lambda entry: (f"-> {entry.next_hop} "
                                   f"({entry.prefix.sort_key()})"),
    # subject: the header exposed by the pop
    "decap": lambda header: f"now {header}",
    "vn-decap": lambda header: f"now {header}",
    # subject: the vN-Bone neighbor's node id
    "vn-forward": lambda next_vn_hop: f"tunnel -> {next_vn_hop}",
    # subject: the pushed IPvN header
    "vn-encap": lambda header: f"tunnel {header}",
    # subject: the IPv4 address exited towards
    "vn-egress": lambda ipv4_dst: f"exit vN-Bone -> {ipv4_dst}",
    # subject: the tuple of copy decisions
    "vn-replicate": lambda copies: f"{len(copies)} copies",
}

#: Slots per hop in :attr:`ForwardingTrace._log`.
_HOP_WIDTH = 5


@dataclass(slots=True)
class ForwardingTrace:
    """The full record of a packet's journey."""

    outcome: Outcome = Outcome.DROPPED
    delivered_to: Optional[str] = None
    physical_hops: int = 0
    vn_hops: int = 0
    encapsulations: int = 0
    decapsulations: int = 0
    #: First IPvN router that accepted the packet (anycast ingress).
    ingress_router: Optional[str] = None
    #: Router that exited the vN-Bone towards an IPv4 destination.
    egress_router: Optional[str] = None
    #: Last node at which the packet was carried inside the vN-Bone.
    last_vn_node: Optional[str] = None
    drop_reason: str = ""
    #: Cumulative sim-time latency of the walk: the sum of
    #: :attr:`Link.delay` over every physical link crossed.  One-way;
    #: probe RTTs double it under the symmetric-return assumption.
    latency: float = 0.0
    #: The hop log: ``node, action, subject, depth, latency`` per hop,
    #: flat, holding only references the walk already had.  A stored
    #: flow retains this and nothing per hop besides; :attr:`hops`
    #: renders it.
    _log: List[Any] = field(default_factory=list, init=False, repr=False)
    #: Deepest ``depth`` logged, by :meth:`record` or at the end of an
    #: IPv4 segment: a traced walk reads :attr:`max_depth` twice.
    _max_depth: int = field(default=1, repr=False)

    def record(self, node: Node, action: str, subject: object = None,
               depth: int = 1) -> None:
        """Log one hop.  *subject* is what the hop's detail is worded
        from on read: by the action's rule in :data:`_DETAIL` if it has
        one, through ``str`` otherwise."""
        self._log += (node, action, subject, depth, self.latency)
        if depth > self._max_depth:
            self._max_depth = depth

    @property
    def hops(self) -> List[HopRecord]:
        """The walk hop by hop, rendered from the log on every read (a
        node's id and domain are read then too)."""
        log = self._log
        hops = []
        for at in range(0, len(log), _HOP_WIDTH):
            node, action, subject, depth, latency = log[at:at + _HOP_WIDTH]
            if subject is None:
                detail = ""
            else:
                render = _DETAIL.get(action)
                detail = str(subject) if render is None else render(subject)
            hops.append(HopRecord(node.node_id, node.domain_id, action, detail,
                                  depth, action == FAULT_ACTION, latency))
        return hops

    @property
    def delivered(self) -> bool:
        return self.outcome is Outcome.DELIVERED

    @property
    def faulted(self) -> bool:
        """Whether the walk encountered injected-fault state anywhere."""
        return (self.outcome is Outcome.FAULT_DROPPED
                or FAULT_ACTION in self._log[1::_HOP_WIDTH])

    def node_path(self) -> List[str]:
        """Distinct consecutive node ids visited, in order."""
        path: List[str] = []
        for node in self._log[::_HOP_WIDTH]:
            if not path or path[-1] != node.node_id:
                path.append(node.node_id)
        return path

    def domain_path(self) -> List[int]:
        """Distinct consecutive domains traversed, in order."""
        path: List[int] = []
        for node in self._log[::_HOP_WIDTH]:
            if not path or path[-1] != node.domain_id:
                path.append(node.domain_id)
        return path

    def __str__(self) -> str:
        lines = [f"outcome={self.outcome.value} delivered_to={self.delivered_to}"]
        lines.extend(f"  {hop.format()}" for hop in self.hops)
        return "\n".join(lines)

    @property
    def max_depth(self) -> int:
        """Deepest encapsulation level the packet reached."""
        return self._max_depth

    def to_dict(self) -> Dict[str, object]:
        """Stable-key, JSON-safe form (the unified ``to_dict`` contract)."""
        return {"outcome": self.outcome.value,
                "delivered_to": self.delivered_to,
                "physical_hops": self.physical_hops,
                "vn_hops": self.vn_hops,
                "encapsulations": self.encapsulations,
                "decapsulations": self.decapsulations,
                "max_depth": self.max_depth,
                "latency": self.latency,
                "ingress_router": self.ingress_router,
                "egress_router": self.egress_router,
                "last_vn_node": self.last_vn_node,
                "drop_reason": self.drop_reason,
                "faulted": self.faulted,
                "hops": [hop.to_dict() for hop in self.hops]}


@dataclass
class MulticastTrace:
    """Aggregate record of a multicast delivery (all branches)."""

    branches: List[ForwardingTrace] = field(default_factory=list)
    delivered_to: Set[str] = field(default_factory=set)
    transmissions: int = 0
    link_stress: Dict[Tuple[str, str], int] = field(default_factory=dict)
    truncated: bool = False

    def add_branch(self, network: Network, branch: ForwardingTrace) -> None:
        self.branches.append(branch)
        self.transmissions += branch.physical_hops
        if branch.delivered and branch.delivered_to is not None:
            self.delivered_to.add(branch.delivered_to)
        path = branch.node_path()
        for a, b in zip(path, path[1:]):
            link = network.link_between(a, b)
            if link is None:
                continue
            key = link.endpoints()
            self.link_stress[key] = self.link_stress.get(key, 0) + 1

    @property
    def max_link_stress(self) -> int:
        return max(self.link_stress.values()) if self.link_stress else 0

    def delivered_all(self, receivers: Set[str]) -> bool:
        return receivers <= self.delivered_to

    def to_dict(self) -> Dict[str, object]:
        """Stable-key, JSON-safe form (the unified ``to_dict`` contract)."""
        outcomes: Dict[str, int] = {}
        for branch in self.branches:
            key = branch.outcome.value
            outcomes[key] = outcomes.get(key, 0) + 1
        return {"branches": len(self.branches),
                "delivered_to": sorted(self.delivered_to),
                "transmissions": self.transmissions,
                "max_link_stress": self.max_link_stress,
                "link_stress": {f"{a}|{b}": count for (a, b), count
                                in sorted(self.link_stress.items())},
                "outcomes": dict(sorted(outcomes.items())),
                "truncated": self.truncated}


def _end_segment(trace: ForwardingTrace, headers: List[Any],
                 v4: IPv4Header, ttl: int, hops: int, latency: float,
                 depth: int) -> None:
    """Write an IPv4 segment's locals back, if it crossed a link: the
    outer header with the segment's TTL, the trace's hop count and
    latency, and the depth the segment's hops were logged at."""
    if ttl != v4.ttl:
        headers[-1] = IPv4Header(v4.src, v4.dst, ttl, v4.protocol)
        trace.physical_hops = hops
        trace.latency = latency
        if depth > trace._max_depth:
            trace._max_depth = depth


class ForwardingEngine:
    """Walks packets through a :class:`Network`.

    vN handlers are registered per (IPvN version) and consulted for any
    router whose per-version ``vn_states`` mark it as running that version; the
    registration is done by :mod:`repro.vnbone` when a deployment is
    instantiated.
    """

    def __init__(self, network: Network, max_steps: int = DEFAULT_MAX_STEPS,
                 obs: Optional[Observability] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.network = network
        self.max_steps = max_steps
        self._vn_handlers: Dict[int, VnHandler] = {}
        self.obs = obs if obs is not None else get_obs()
        #: Optional sim-clock callable so forwarding spans/events carry
        #: simulation time (the orchestrator wires its scheduler in).
        self.clock = clock
        #: Flow-level fast path: replays delivered walks for repeat
        #: packets of a flow while ``network.forwarding_version`` holds
        #: (see :mod:`repro.net.fastpath`).
        self.fastpath = FlowFastPath(network)
        #: Per flow, the ``forward`` event that last listed its hops:
        #: ``(tracer, topology_version, hop log, seq)``.
        self._listed: Dict[FlowKey, Tuple[object, int, List[Any], int]] = {}
        self._outcome_counters: Dict[Outcome, Counter] = {
            outcome: self.obs.counter(f"forwarding.outcome.{outcome.value}")
            for outcome in Outcome}

    def register_vn_handler(self, version: int, handler: VnHandler) -> None:
        """Install the forwarding logic for IPvN *version* routers."""
        self._vn_handlers[version] = handler
        self.network._on_forwarding_change()  # noqa: SLF001 - forwarding state

    def vn_handler(self, version: int) -> Optional[VnHandler]:
        return self._vn_handlers.get(version)

    # -- the walk -----------------------------------------------------------
    def forward(self, packet: Packet, start: str, strict: bool = False) -> ForwardingTrace:
        """Run *packet* from node *start* until a terminal outcome.

        When this packet repeats a stored flow (same start, identical
        header stack, unchanged forwarding state), the stored trace is
        returned and the packet is left as sent: no walk.  Any
        delivered, fault-free walk is stored, encapsulated IPvN ones
        included.

        With observability enabled the packet gets a ``forward`` span —
        parented to the packet's carried context when present
        (replicas, re-sends), otherwise to the innermost entered span
        (e.g. a fault-epoch workload), and stamped onto the packet for
        downstream causality — and a ``forward`` event, the same for a
        replayed trace as for a walked one (its hops listed once per
        flow, see :meth:`_observe_trace`).  Disabled handles skip all
        of it behind the usual one ``enabled`` check.
        """
        fastpath = self.fastpath
        flow = fastpath.key_for(packet, start)
        cached = fastpath.lookup(flow)
        if not self.obs.enabled:
            if cached is not None:
                return cached
            trace = ForwardingTrace()
            self._walk(packet, self.network.node(start), trace, strict, None)
            fastpath.store(flow, trace)
            return trace
        t = self.clock() if self.clock is not None else None
        span = self.obs.span("forward", t=t, parent=packet.span, start=start)
        if packet.span is None:
            packet.span = span.context
        trace = ForwardingTrace() if cached is None else cached
        with span:
            if cached is None:
                self._walk(packet, self.network.node(start), trace, strict, None)
            span.end(t=t, **self._span_fields(trace))
        self._observe_trace(trace, start, flow)
        if cached is None:
            fastpath.store(flow, trace)
        return trace

    @staticmethod
    def _span_fields(trace: ForwardingTrace) -> Dict[str, object]:
        """The ``span.end`` payload of one walk — everything the offline
        analyzer needs to classify the walk (blackhole/loop detection,
        stretch and encapsulation-overhead distributions) without the
        hop list."""
        return {"outcome": trace.outcome.value,
                "delivered_to": trace.delivered_to,
                "physical_hops": trace.physical_hops,
                "vn_hops": trace.vn_hops,
                "encapsulations": trace.encapsulations,
                "decapsulations": trace.decapsulations,
                "max_depth": trace.max_depth,
                "latency": trace.latency,
                "faulted": trace.faulted,
                "drop_reason": trace.drop_reason}

    def _observe_trace(self, trace: ForwardingTrace, start: str,  # repro: allow[D4]
                       flow: Optional[FlowKey] = None) -> None:
        """Per-outcome counters, hop/depth histograms, one trace event.

        The event lists the walk's rendered hops, unless the last
        ``forward`` event of *flow* (``None``: a multicast branch, always
        listed) went to the same tracer at the same topology version
        with an equal hop log: then it carries ``hops_at``, that event's
        ``seq``.  Equal logs render equal hops: their nodes are the same
        objects, everything else in them is frozen, and a node's domain
        moves only with the topology version.  Keyed on content, so a
        fresh walk of a flow dedups exactly like a fast-path replay.
        """
        self._outcome_counters[trace.outcome].inc()
        obs = self.obs
        obs.histogram("forwarding.physical_hops").observe(trace.physical_hops)
        obs.histogram("forwarding.encapsulations").observe(trace.encapsulations)
        obs.histogram("forwarding.max_depth").observe(trace.max_depth)
        fields: Dict[str, Any] = {
            "outcome": trace.outcome.value, "start": start,
            "delivered_to": trace.delivered_to,
            "physical_hops": trace.physical_hops, "vn_hops": trace.vn_hops,
            "encapsulations": trace.encapsulations,
            "max_depth": trace.max_depth, "latency": trace.latency,
            "faulted": trace.faulted}
        tracer, log = obs.tracer, trace._log
        version = self.network.topology_version
        listed = self._listed.get(flow) if flow is not None else None
        if (listed is not None and listed[0] is tracer
                and listed[1] == version and listed[2] == log):
            obs.event("forward", hops_at=listed[3], **fields)
            return
        seq = obs.event("forward", hops=[hop.format() for hop in trace.hops],
                        **fields)
        if flow is not None and seq is not None:
            self._listed[flow] = (tracer, version, log, seq)

    def forward_multicast(self, packet: Packet, start: str) -> "MulticastTrace":
        """Run a multicast packet, following every replication branch.

        Each fork (a :class:`VnReplicate` decision) spawns independent
        branch walks; the returned :class:`MulticastTrace` aggregates
        deliveries, total transmissions, and per-link stress.
        """
        mtrace = MulticastTrace()
        observed = self.obs.enabled
        t = self.clock() if (observed and self.clock is not None) else None
        root = None
        if observed:
            # The fanout root span; every branch parents under it (or
            # under the branch that replicated it, via the packet-
            # carried context), so the trace is the distribution tree.
            root = self.obs.span("forward.multicast", t=t, parent=packet.span,
                                 start=start).start()
            if packet.span is None:
                packet.span = root.context
        queue: deque = deque([(packet, self.network.node(start))])
        while queue:
            if len(mtrace.branches) >= self.max_steps:
                mtrace.truncated = True
                break
            branch_packet, node = queue.popleft()
            branch = ForwardingTrace()
            if root is None:
                self._walk(branch_packet, node, branch, False, queue)
            else:
                bspan = self.obs.span("forward", t=t,
                                      parent=branch_packet.span,
                                      start=node.node_id)
                branch_packet.span = bspan.context
                with bspan:
                    self._walk(branch_packet, node, branch, False, queue)
                    bspan.end(t=t, **self._span_fields(branch))
                self._observe_trace(branch, node.node_id)
            mtrace.add_branch(self.network, branch)
        if observed:
            self.obs.counter("forwarding.multicast_walks").inc()
            self.obs.event("forward.multicast", start=start,
                           branches=len(mtrace.branches),
                           delivered=len(mtrace.delivered_to),
                           transmissions=mtrace.transmissions,
                           max_link_stress=mtrace.max_link_stress,
                           truncated=mtrace.truncated)
            if root is not None:
                root.end(t=t, branches=len(mtrace.branches),
                         delivered=len(mtrace.delivered_to),
                         transmissions=mtrace.transmissions,
                         max_link_stress=mtrace.max_link_stress,
                         truncated=mtrace.truncated)
        return mtrace

    def _walk(self, packet: Packet, node: Node, trace: ForwardingTrace,
              strict: bool, fork_queue: Optional[deque]) -> None:
        """Carry *packet* from *node* until it is delivered, dropped or
        forked.

        Every node the packet reaches is checked the same way first: up,
        then within ``max_steps``.  An IPvN outer header then takes one
        :meth:`_vn_step`.  An IPv4 outer header is carried as a
        *segment*: from node to node until a node accepts it or drops
        it, with the TTL, the hop count and the latency in locals and
        each hop's five log slots appended directly.  The segment writes
        the header and the counters back once, when it ends: before the
        accepting node decapsulates or delivers, and before a drop is
        recorded.  The drops of this loop share one tail.
        """
        links, nodes = self.network.links, self.network.nodes
        max_steps = self.max_steps
        headers = packet.headers
        log = trace._log
        steps = 0
        # The IPv4 header the running segment carries, or None.
        v4: Optional[IPv4Header] = None
        while True:
            if not node.up:
                outcome, reason = (Outcome.FAULT_DROPPED,
                                   f"node {node.node_id} is down")
                error: ForwardingError = FaultDropError(reason)
                break
            steps += 1
            if steps > max_steps:
                outcome, reason = Outcome.LOOP, f"exceeded {max_steps} steps"
                error = ForwardingLoopError(reason)
                break
            if v4 is None:
                outer = headers[-1]
                if not isinstance(outer, IPv4Header):
                    next_node = self._vn_step(node, packet, outer, trace,
                                              strict, fork_queue)
                    if next_node is None:
                        return
                    node = next_node
                    continue
                v4, dst, ttl, depth = outer, outer.dst, outer.ttl, len(headers)
                hops, latency = trace.physical_hops, trace.latency
            if node.accepts_ipv4(dst):
                _end_segment(trace, headers, v4, ttl, hops, latency, depth)
                v4 = None
                if self._accept_locally(node, packet, trace) is None:
                    return
                continue  # the inner header, at this node
            entry = node.fib4.lookup(dst)
            next_hop = None if entry is None else entry.next_hop
            node_id = node.node_id
            if next_hop is None:
                outcome = Outcome.NO_ROUTE
                reason = f"no IPv4 route at {node_id} for {dst}"
                error = NoRouteError(node_id, dst)
                break
            if ttl <= 1:
                outcome = Outcome.TTL_EXPIRED
                reason = f"IPv4 TTL expired at {node_id}"
                error = TTLExpiredError(node_id)
                break
            link = links.get((node_id, next_hop) if node_id <= next_hop
                             else (next_hop, node_id))
            if link is None:
                outcome = Outcome.NO_ROUTE
                reason = f"next hop {next_hop} unreachable from {node_id}"
                error = NoRouteError(node_id, dst)
                break
            if not link.up:
                outcome = Outcome.FAULT_DROPPED
                reason = f"link {node_id}<->{next_hop} is down"
                error = FaultDropError(reason)
                break
            ttl -= 1
            hops += 1
            latency += link.delay
            log += (node, "ipv4-forward", entry, depth, latency)
            node = nodes[next_hop]
        if v4 is not None:
            _end_segment(trace, headers, v4, ttl, hops, latency, depth)
        trace.outcome = outcome
        trace.drop_reason = reason
        if outcome is not Outcome.LOOP:
            trace.record(node, FAULT_ACTION if outcome is Outcome.FAULT_DROPPED
                         else "drop", reason)
        if strict:
            raise error

    def _accept_locally(self, node: Node, packet: Packet,
                        trace: ForwardingTrace) -> Optional[Node]:
        if packet.depth > 1:
            packet.decapsulate()
            trace.decapsulations += 1
            trace.record(node, "decap", packet.outer, depth=packet.depth)
            if isinstance(packet.outer, VNHeader) and node.is_router:
                if trace.ingress_router is None:
                    trace.ingress_router = node.node_id
                trace.last_vn_node = node.node_id
            return node  # reprocess the inner header at this node
        trace.outcome = Outcome.DELIVERED
        trace.delivered_to = node.node_id
        trace.record(node, "deliver", depth=packet.depth)
        return None

    # -- IPvN ----------------------------------------------------------------
    def _vn_step(self, node: Node, packet: Packet, outer: VNHeader,
                 trace: ForwardingTrace, strict: bool,
                 fork_queue: Optional[deque] = None) -> Optional[Node]:
        if node.is_host:
            host_addr = getattr(node, "vn_addresses", {}).get(outer.version)
            joined = outer.dst in getattr(node, "vn_groups", set())
            if host_addr == outer.dst or joined:
                trace.outcome = Outcome.DELIVERED
                trace.delivered_to = node.node_id
                trace.record(node, "vn-deliver", outer.dst)
            else:
                trace.outcome = Outcome.DROPPED
                trace.drop_reason = (
                    f"host {node.node_id} is not IPv{outer.version} {outer.dst}")
                trace.record(node, "drop", trace.drop_reason)
                if strict:
                    raise NotVnDestinationError(trace.drop_reason)
            return None
        handler = self._vn_handlers.get(outer.version)
        if handler is None or node.vn_state_for(outer.version) is None:
            trace.outcome = Outcome.NO_VN_HANDLER
            trace.drop_reason = f"{node.node_id} cannot process IPv{outer.version}"
            trace.record(node, "drop", trace.drop_reason)
            if strict:
                raise NoVnHandlerError(trace.drop_reason)
            return None
        trace.last_vn_node = node.node_id
        decision = handler(node, packet)
        if isinstance(decision, VnDeliver):
            if packet.depth > 1:
                # A vN-in-vN tunnel terminating here (e.g. a multicast
                # register reaching the group core): unwrap and keep going.
                packet.decapsulate()
                trace.decapsulations += 1
                trace.record(node, "vn-decap", packet.outer,
                             depth=packet.depth)
                return node
            trace.outcome = Outcome.DELIVERED
            trace.delivered_to = node.node_id
            trace.record(node, "vn-deliver", outer.dst)
            return None
        if isinstance(decision, VnDrop):
            trace.outcome = Outcome.DROPPED
            trace.drop_reason = decision.reason
            trace.record(node, "drop", decision.reason)
            if strict:
                raise NoRouteError(node.node_id, outer.dst)
            return None
        if outer.ttl <= 1:
            trace.outcome = Outcome.TTL_EXPIRED
            trace.drop_reason = f"IPv{outer.version} TTL expired at {node.node_id}"
            trace.record(node, "drop", trace.drop_reason)
            if strict:
                raise TTLExpiredError(node.node_id)
            return None
        packet.replace_outer(outer.decremented())
        if isinstance(decision, VnForward):
            neighbor = self.network.node(decision.next_vn_hop)
            packet.encapsulate(IPv4Header(node.ipv4, neighbor.ipv4))
            trace.encapsulations += 1
            trace.vn_hops += 1
            trace.record(node, "vn-forward", decision.next_vn_hop,
                         depth=packet.depth)
            return node  # IPv4 forwarding takes it from here
        if isinstance(decision, VnEncap):
            assert isinstance(decision.header, VNHeader)
            packet.encapsulate(decision.header)
            trace.encapsulations += 1
            trace.record(node, "vn-encap", decision.header,
                         depth=packet.depth)
            return node
        if isinstance(decision, VnReplicate):
            return self._replicate(node, packet, trace, decision, strict,
                                   fork_queue)
        assert isinstance(decision, VnEgress)
        packet.encapsulate(IPv4Header(node.ipv4, decision.ipv4_dst))
        trace.encapsulations += 1
        trace.egress_router = node.node_id
        trace.record(node, "vn-egress", decision.ipv4_dst,
                     depth=packet.depth)
        return node

    def _replicate(self, node: Node, packet: Packet, trace: ForwardingTrace,
                   decision: VnReplicate, strict: bool,
                   fork_queue: Optional[deque]) -> Optional[Node]:
        if fork_queue is None:
            trace.outcome = Outcome.DROPPED
            trace.drop_reason = (
                f"replication at {node.node_id} outside a multicast walk")
            trace.record(node, "drop", trace.drop_reason)
            if strict:
                raise ReplicationError(trace.drop_reason)
            return None
        outer = packet.outer
        assert isinstance(outer, VNHeader)
        if decision.mark_downstream:
            outer = outer.marked_downstream()
        for copy_decision in decision.copies:
            copy = packet.copy()
            copy.replace_outer(outer)
            if isinstance(copy_decision, VnForward):
                neighbor = self.network.node(copy_decision.next_vn_hop)
                copy.encapsulate(IPv4Header(node.ipv4, neighbor.ipv4))
            else:
                copy.encapsulate(IPv4Header(node.ipv4, copy_decision.ipv4_dst))
            fork_queue.append((copy, node))
        trace.outcome = Outcome.REPLICATED
        trace.record(node, "vn-replicate", decision.copies,
                     depth=packet.depth)
        return None
