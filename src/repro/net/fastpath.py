"""Flow-level forwarding fast path: aggregate identical walks.

At scale, the measured hot path is the per-packet hop-by-hop walk in
:class:`~repro.net.forwarding.ForwardingEngine`: sweeps send many
packets with *identical* header stacks between the same endpoints, and
each one re-walks the same FIB lookups and re-emits the same spans.

The fast path memoizes completed walks per **flow** — the pair
``(start node, exact outermost IPv4 header)`` — and replays the cached
:class:`~repro.net.forwarding.ForwardingTrace` for subsequent packets
of the flow, recording a per-flow packet count instead of per-packet
spans.  Replay is answer-preserving because a walk is a deterministic
function of ``(start, header stack, network state, handler state)``:

* only **pure IPv4** walks are cached (one header, no encapsulation or
  decapsulation, no vN handler involvement), so the only mutable
  inputs are FIBs, link/node liveness, and local-acceptance sets;
* link/node liveness is covered by ``Network.topology_version`` — any
  mismatch clears the cache (same scheme as
  :class:`~repro.perf.cache.PathCache`);
* FIB and acceptance-set changes are covered by an explicit state
  epoch: :meth:`FlowFastPath.bump` is called by every route
  installation (``Orchestrator.converge``/``install_routes``) and
  vN-Bone rebuild;
* fault experiments bracket their epochs with :meth:`pause` /
  :meth:`resume` — while faults are being applied and measured, every
  packet takes the slow path and nothing is cached, so transient
  (pre-reconvergence) behavior is never replayed;
* only **delivered, fault-free** walks are cached, so ``strict=True``
  raise-on-failure semantics are preserved bit-for-bit.

The header key includes TTL and protocol, so flows are exact-match; a
cached trace is returned as a shared object and callers treat traces
as read-only (the same contract :class:`~repro.perf.cache.PathCache`
relies on for trees).

Per rule D4 the obs counters are registered behind ``obs.enabled``;
plain integer stats are always live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.net.errors import ForwardingError
from repro.net.packet import IPv4Header, Packet
from repro.obs import get_obs

if TYPE_CHECKING:  # import cycle: forwarding.py imports this module
    from repro.net.forwarding import ForwardingTrace
    from repro.net.network import Network


def fastpath_enabled() -> bool:
    # Read by bench/harness.py::provenance; goes when that block does.
    return True


#: One flow: (start node, exact outer IPv4 header — frozen, hashable).
FlowKey = Tuple[str, IPv4Header]


class FlowFastPath:
    """Memoizes delivered pure-IPv4 walks per flow, per quiescent state."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.obs = get_obs()
        self._version = network.topology_version
        self._paused = 0
        self._traces: Dict[FlowKey, "ForwardingTrace"] = {}
        self.flow_counts: Dict[FlowKey, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether lookups may be served right now."""
        return self._paused == 0

    @property
    def paused(self) -> bool:
        return self._paused > 0

    def pause(self) -> None:
        """Disable the fast path (nested; fault epochs bracket with this)."""
        self._paused += 1
        self._invalidate()

    def resume(self) -> None:
        if self._paused == 0:
            raise ForwardingError("fast path resume() without pause()")
        self._paused -= 1

    def bump(self) -> None:
        """Forwarding state changed (FIB install, vN-Bone rebuild):
        drop every cached flow."""
        self._invalidate()

    def _invalidate(self) -> None:
        if self._traces:
            self._traces.clear()
            self.flow_counts.clear()
            self.invalidations += 1
            if self.obs.enabled:
                self.obs.counter("perf.fastpath.invalidations").inc()
        self._version = self.network.topology_version

    def _check_version(self) -> None:
        if self.network.topology_version != self._version:
            self._invalidate()

    # -- the flow cache ----------------------------------------------------
    def key_for(self, packet: Packet, start: str) -> Optional[FlowKey]:
        """The packet's flow key, or ``None`` if it is not fast-pathable
        (anything but a single plain IPv4 header)."""
        if len(packet.headers) != 1:
            return None
        header = packet.headers[0]
        if not isinstance(header, IPv4Header):
            return None
        return (start, header)

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
        self.flow_counts[key] = self.flow_counts.get(key, 0) + 1
        if self.obs.enabled:
            self.obs.counter("perf.fastpath.hits").inc()
        return trace

    def store(self, key: FlowKey, trace: "ForwardingTrace") -> bool:
        """Cache a completed slow-path walk if it is replay-safe.

        Only delivered, fault-free, encapsulation-free walks qualify:
        anything that touched a vN handler, hit injected-fault state,
        or failed to deliver re-walks every time (and raise-on-failure
        ``strict`` semantics stay exact).
        """
        if not self.active:
            return False
        if (not trace.delivered or trace.faulted
                or trace.encapsulations or trace.decapsulations
                or trace.vn_hops):
            return False
        self._check_version()
        self._traces[key] = trace
        self.flow_counts.setdefault(key, 1)
        return True

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> Dict[str, int]:
        """Plain-int snapshot (works without an observability handle)."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "flows": len(self._traces),
                "packets_aggregated": sum(self.flow_counts.values())}
