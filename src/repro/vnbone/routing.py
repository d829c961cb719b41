"""Routing over the vN-Bone (Section 3.3.2) and the IPvN data plane.

The paper deliberately leaves the IPvN routing protocols unconstrained
("BGPvN need not strictly resemble today's BGP").  We implement the
straightforward choice: link-state over the virtual topology.  Every
member computes shortest paths over the tunnel graph, and routes are
installed for *advertised prefixes* — each prefix advertised by one or
more **owners** with an advertised cost, mirroring route origination:

* each member's own IPvN address (``LOCAL``),
* native host addresses, owned by the member nearest the host's access
  router, which exits the vN-Bone towards the host (``EGRESS``),
* self-addressed blocks of non-IPvN domains, owned by the egress
  routers that :mod:`repro.vnbone.egress` selects (``EGRESS``), or by
  the proxies of advertising-by-proxy (``EgressPolicy.PROXY``).

When several owners advertise the same prefix, each member routes to
the one minimizing (vN-Bone distance + advertised cost) — anycast-style
selection inside the vN-Bone, which is exactly how advertising-by-proxy
picks the best exit (Figure 4).  The tunnel graph
(:func:`tunnel_graph`), the per-member SPF sweep (:func:`spf_sweep`)
and this owner rule (:func:`write_owner_rows`) are shared with the
layered :class:`~repro.vnbone.bgpvn.LayeredVnRouting`.

The module also provides the forwarding-engine handler that makes IPvN
routers act on these FIBs, including the fallback the paper calls "the
simplest option": if a packet has no vN route but carries (or embeds)
an IPv(N-1) destination, exit the vN-Bone and forward directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.forwarding import (VnDecision, VnDeliver, VnDrop, VnEgress,
                                  VnForward, VnHandler)
from repro.net.network import Network, first_hop_spf
from repro.net.node import Node
from repro.net.packet import Packet, VNHeader
from repro.obs import Observability, get_obs
from repro.vnbone.state import VnAction, VnFib, VnRouterState

#: A canonical, hashable rendering of a tunnel-graph adjacency —
#: member -> sorted (neighbor, cost) edges.  Equal signatures mean the
#: SPF input is unchanged, so prior results can be reused verbatim.
AdjacencySignature = Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]
#: Member -> its first hop towards each member it reaches.
FirstHops = Dict[str, Dict[str, str]]


def adjacency_signature(
        adjacency: Dict[str, Dict[str, float]]) -> AdjacencySignature:
    return tuple((member, tuple(sorted(adjacency[member].items())))
                 for member in sorted(adjacency))


@dataclass(frozen=True)
class OwnerEntry:
    """One prefix advertisement into vN-Bone routing."""

    prefix: Prefix
    owner: str
    action: VnAction
    egress_ipv4: Optional[IPv4Address] = None
    advertised_cost: float = 0.0
    origin: str = ""


#: Each prefix with its candidate owners, prefixes by ``str`` and each
#: prefix's entries by owner: the order selection reads them in.
CandidateView = List[Tuple[Prefix, List[OwnerEntry]]]


def tunnel_graph(states: Dict[str, VnRouterState]
                 ) -> Dict[str, Dict[str, float]]:
    """The members' virtual links, symmetric, cheapest cost per pair:
    every member -> {neighbor member: cost}."""
    adjacency: Dict[str, Dict[str, float]] = {m: {} for m in states}
    for member, state in states.items():
        for neighbor, cost in state.neighbors.items():
            if neighbor not in states:
                continue
            adjacency[member][neighbor] = min(
                cost, adjacency[member].get(neighbor, float("inf")))
            adjacency[neighbor][member] = adjacency[member][neighbor]
    return adjacency


def spf_sweep(adjacency: Dict[str, Dict[str, float]], obs: Observability
              ) -> Tuple[Dict[str, Dict[str, float]], FirstHops]:
    """One ``first_hop_spf`` per member of *adjacency*: per member the
    distance to, and first hop towards, every member it reaches."""
    # Edge lists sorted once here, not once per heap pop.
    sorted_adjacency = {member: sorted(edges.items())
                        for member, edges in adjacency.items()}
    dist: Dict[str, Dict[str, float]] = {}
    first_hop: FirstHops = {}
    for member in sorted(adjacency):
        if obs.enabled:
            obs.counter("perf.dijkstra_runs").inc()
        tree = first_hop_spf(member, sorted_adjacency)
        dist[member] = {n: tree[n][0] for n in sorted(tree)}
        first_hop[member] = {
            n: hop for n, (_, hop) in tree.items() if hop is not None}
    return dist, first_hop


def candidate_view(owner_entries: Iterable[OwnerEntry]) -> CandidateView:
    """*owner_entries* grouped by prefix in selection order."""
    by_prefix: Dict[Prefix, List[OwnerEntry]] = {}
    for entry in owner_entries:
        by_prefix.setdefault(entry.prefix, []).append(entry)
    return [(prefix, sorted(by_prefix[prefix], key=lambda e: e.owner))
            for prefix in sorted(by_prefix, key=str)]


def write_owner_rows(member: str, fib: VnFib, view: CandidateView,
                     dist: Dict[str, float], first_hop: Dict[str, str]
                     ) -> Tuple[int, List[Prefix]]:
    """Write, per prefix of *view*, the owner minimizing (distance +
    advertised cost, owner) into *member*'s FIB; returns (rows written,
    prefixes with a winner).  *view* lists each prefix's entries by
    owner, so a later entry wins only when strictly cheaper.  Rows of
    prefixes without a winner stay: the caller's ``retain`` drops them."""
    write = fib.write
    kept: List[Prefix] = []
    written = 0
    for prefix, candidates in view:
        best: Optional[OwnerEntry] = None
        best_total = 0.0
        for entry in candidates:
            if entry.owner == member:
                total = entry.advertised_cost
            else:
                reach = dist.get(entry.owner)
                if reach is None:
                    continue  # owner unreachable over the vN-Bone
                total = reach + entry.advertised_cost
            if best is None or total < best_total:
                best, best_total = entry, total
        if best is None:
            continue
        kept.append(prefix)
        if best.owner == member:
            written += write(prefix, best.action, None, best.egress_ipv4,
                             best_total, best.origin)
        else:
            written += write(prefix, VnAction.FORWARD,
                             first_hop[best.owner], None, best_total,
                             best.origin)
    return written, kept


class VnRouting:
    """Computes vN-Bone routes and installs IPvN FIBs."""

    def __init__(self, network: Network, version: int) -> None:
        self.network = network
        self.version = version
        self.obs = get_obs()
        self._dist: Dict[str, Dict[str, float]] = {}
        self._first_hop: FirstHops = {}
        #: Tunnel-graph signature the current SPF results were built from.
        self._signature: Optional[AdjacencySignature] = None
        #: The ordered candidate view the FIBs in ``_written`` were
        #: written from, and member -> the ``VnFib`` object written.
        self._view: CandidateView = []
        self._written: Dict[str, VnFib] = {}
        #: What the skip and the delta write did (see :meth:`gate_stats`).
        self.members_written = 0
        self.members_skipped = 0
        self.rows_written = 0
        self.rows_removed = 0

    def gate_stats(self) -> Dict[str, int]:
        """Plain-int totals of the members skipped and the rows written."""
        return {"members_written": self.members_written,
                "members_skipped": self.members_skipped,
                "rows_written": self.rows_written,
                "rows_removed": self.rows_removed}

    def compute(self, states: Dict[str, VnRouterState],
                owner_entries: List[OwnerEntry]) -> None:
        """Run SPF for every member and write every IPvN FIB's delta.

        The per-member SPF sweep is skipped entirely when the tunnel
        graph is unchanged since the last ``compute`` (same members,
        same edges, same costs) — rebuilds triggered by ownership or
        advertisement changes reuse the previous distances.  A member's
        FIB is a pure function of its SPF rows, the ordered candidate
        view and the ``VnFib`` object itself, so when all three are what
        the last ``compute`` wrote from, the member is skipped; any
        other member gets only the rows that differ written and the rows
        with no winner removed.
        """
        adjacency = tunnel_graph(states)
        signature = adjacency_signature(adjacency)
        spf_reused = signature == self._signature
        if spf_reused:
            if self.obs.enabled:
                self.obs.counter("vnbone.spf_cache_hits").inc()
        else:
            # The old sweep goes before the new one is built (peak RSS).
            self._dist.clear()
            self._first_hop.clear()
            self._dist, self._first_hop = spf_sweep(adjacency, self.obs)
            self._signature = signature
        # Ordered once: every member selects over the same view.
        ordered = candidate_view(owner_entries)
        if not spf_reused or ordered != self._view:
            self._view = ordered
            self._written = {}
        written = rows_written = rows_removed = 0
        for member in sorted(states):
            fib = states[member].fib
            if self._written.get(member) is fib:
                continue
            added, kept = write_owner_rows(member, fib, ordered,
                                           self._dist.get(member, {}),
                                           self._first_hop.get(member, {}))
            self._written[member] = fib
            written += 1
            rows_written += added
            rows_removed += fib.retain(kept)
        skipped = len(states) - written
        self.members_written += written
        self.members_skipped += skipped
        self.rows_written += rows_written
        self.rows_removed += rows_removed
        if self.obs.enabled:
            self.obs.counter("vnbone.fib.members_written").inc(written)
            self.obs.counter("vnbone.fib.members_skipped").inc(skipped)
            self.obs.counter("vnbone.fib.rows_written").inc(rows_written)
            self.obs.counter("vnbone.fib.rows_removed").inc(rows_removed)

    # -- inspection ---------------------------------------------------------------------
    def distance(self, a: str, b: str) -> Optional[float]:
        return self._dist.get(a, {}).get(b)

    def reachable_members(self, member: str) -> Set[str]:
        return set(self._dist.get(member, {}))

    def path(self, a: str, b: str) -> Optional[List[str]]:
        """Member-level vN-Bone path from *a* to *b* (following first hops)."""
        if b not in self._dist.get(a, {}):
            return None
        path = [a]
        current = a
        seen = {a}
        while current != b:
            nxt = self._first_hop.get(current, {}).get(b)
            if nxt is None or nxt in seen:
                return None
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path


def make_vn_handler(version: int,
                    fallback_exit: bool = True) -> VnHandler:
    """Forwarding-engine handler implementing the IPvN data plane.

    ``fallback_exit`` enables the paper's "simplest option": with no vN
    route, exit the vN-Bone towards the packet's IPv(N-1) destination
    (option field, or inferred from a self-assigned address).
    """

    def handler(node: Node, packet: Packet) -> VnDecision:
        state = node.vn_state_for(version)
        if not isinstance(state, VnRouterState) or state.version != version:
            return VnDrop(f"{node.node_id} has no IPv{version} state")
        header = packet.outer
        assert isinstance(header, VNHeader)
        if header.dst == state.vn_address:
            return VnDeliver()
        entry = state.fib.lookup(header.dst)
        if entry is not None:
            if entry.action is VnAction.LOCAL:
                return VnDeliver()
            if entry.action is VnAction.FORWARD:
                assert entry.next_hop is not None
                return VnForward(entry.next_hop)
            target = entry.egress_ipv4
            if target is None:
                target = header.effective_dest_ipv4()
            if target is None:
                return VnDrop(f"egress entry for {entry.prefix} has no IPv4 target")
            return VnEgress(target)
        if fallback_exit:
            target = header.effective_dest_ipv4()
            if target is not None:
                return VnEgress(target)
        return VnDrop(f"no IPv{version} route for {header.dst} at {node.node_id}")

    return handler
