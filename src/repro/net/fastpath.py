"""Flow-level forwarding fast path: aggregate identical walks.

The hot path is the per-packet hop-by-hop walk in
:class:`~repro.net.forwarding.ForwardingEngine`: traffic repeats
*identical* header stacks from the same node — in the paper's own
dataplane a host's IPvN packet inside IPv4 to the anycast address — and
each repeat re-walks the same FIB lookups, decapsulations, vN handler
decisions and tunnels.

The fast path stores completed walks per **flow** — the pair
``(start node, the whole header stack)`` — and replays the stored
:class:`~repro.net.forwarding.ForwardingTrace` for later packets of the
flow, counting the packets it answers.  An observed replay still emits
the ``forward`` span and event of a walk (the engine does that), so a
trace file does not show which packets were replayed.

Replay is answer-preserving because a walk is a deterministic function
of the start node, the exact header stack, and forwarding state: IPv4
FIBs, vN FIBs, local-acceptance sets, per-router IPvN state, host IPvN
addresses and group memberships, the registered vN handler, and
link/node liveness.  Nothing tells the fast path when that state
changes: the state moves ``Network.forwarding_version`` itself (every
topology bump, and every change a node, its FIB, an attached ``VnFib``
or the engine's handler table reports through the network's one hook),
and the table drops every flow at the first lookup or store after it
moved.  No stored walk depends on what is not watched: a host's first
IPvN address or a join (either can only turn a drop into a delivery),
and per-router multicast state (a unicast walk reading it ends in a
drop).  Only **delivered, fault-free** walks are stored, so
``strict=True`` raise-on-failure semantics are preserved bit-for-bit.
Fault plans get no special case: a transient (pre-reconvergence) walk
is replayed only while the stale FIBs it read are still installed.

Headers are immutable tuples (:mod:`repro.net.packet`): a header equals
the plain tuple of its fields, and a key compares every field (TTL,
protocol, the ``dest_ipv4`` option and the multicast flag included) and
the header kind (an IPv4 header has four fields, an IPvN header five),
so flows are exact-match.  A stored trace is returned as a shared
object and callers treat traces as read-only (the same contract
:class:`~repro.perf.cache.PathCache` relies on for trees).  A replay
leaves the packet as sent — its headers are not decremented or popped.

Per rule D4 the obs counters are registered behind ``obs.enabled``;
plain integer stats are always live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.net.packet import Header, Packet
from repro.obs import get_obs

if TYPE_CHECKING:  # import cycle: forwarding.py imports this module
    from repro.net.forwarding import ForwardingTrace
    from repro.net.network import Network


def fastpath_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


#: One flow: (start node, the header stack innermost first — immutable
#: headers, hashable).
FlowKey = Tuple[str, Tuple[Header, ...]]


class FlowFastPath:
    """Stores delivered walks per flow while forwarding state holds."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.obs = get_obs()
        self._version = network.forwarding_version
        self._traces: Dict[FlowKey, "ForwardingTrace"] = {}
        #: Packets answered from the table since it was last dropped.
        self._replays = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- lifecycle ---------------------------------------------------------
    def _check_version(self) -> None:
        """Forwarding state changed since the last check: drop every
        stored flow."""
        version = self.network.forwarding_version
        if version == self._version:
            return
        self._version = version
        if self._traces:
            self._traces.clear()
            self._replays = 0
            self.invalidations += 1
            if self.obs.enabled:
                self.obs.counter("perf.fastpath.invalidations").inc()

    # -- the flow cache ----------------------------------------------------
    def key_for(self, packet: Packet, start: str) -> FlowKey:
        """The packet's flow key: where it starts and every header it
        carries."""
        return (start, tuple(packet.headers))

    def lookup(self, key: FlowKey) -> Optional["ForwardingTrace"]:
        """The cached trace for *key*, counting the hit or miss."""
        self._check_version()
        trace = self._traces.get(key)
        if trace is None:
            self.misses += 1
            if self.obs.enabled:
                self.obs.counter("perf.fastpath.misses").inc()
            return None
        self.hits += 1
        self._replays += 1
        if self.obs.enabled:
            self.obs.counter("perf.fastpath.hits").inc()
        return trace

    def store(self, key: FlowKey, trace: "ForwardingTrace") -> None:
        """Store a completed slow-path walk if it is replay-safe.

        Only delivered, fault-free walks qualify: anything that hit
        injected-fault state or failed to deliver re-walks every time
        (and raise-on-failure ``strict`` semantics stay exact).
        """
        if not trace.delivered or trace.faulted:
            return
        self._check_version()
        self._traces[key] = trace

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> Dict[str, int]:
        """Plain-int snapshot (works without an observability handle)."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "flows": len(self._traces),
                "packets_aggregated": len(self._traces) + self._replays}
