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
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.net.address import IPv4Address, Prefix
from repro.net.forwarding import (VnDecision, VnDeliver, VnDrop, VnEgress,
                                  VnForward, VnHandler)
from repro.net.network import Network, first_hop_spf, grow_first_hop_spf
from repro.net.node import Node
from repro.net.packet import Packet, VNHeader
from repro.obs import Observability, get_obs
from repro.vnbone.state import VnAction, VnFib, VnRouterState

#: Member -> its first hop towards each member it reaches.
FirstHops = Dict[str, Dict[str, str]]


@dataclass(frozen=True)
class OwnerEntry:
    """One prefix advertisement into vN-Bone routing."""

    prefix: Prefix
    owner: str
    action: VnAction
    egress_ipv4: Optional[IPv4Address] = None
    advertised_cost: float = 0.0
    origin: str = ""


#: A prefix's candidate owners in selection order: by advertised cost,
#: stably over owner order, each with its rank in owner order.
Candidates = List[Tuple[int, OwnerEntry]]
#: Each prefix (by ``str``) with its candidates.
CandidateView = List[Tuple[Prefix, Candidates]]


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


def spf_rows(adjacency: Dict[str, Dict[str, float]], obs: Observability
             ) -> Iterator[Tuple[str, Dict[str, float], Dict[str, str]]]:
    """One ``first_hop_spf`` per member of *adjacency*, in member order:
    each member with its distance to, and first hop towards, every
    member it reaches."""
    ordered = sorted_edges(adjacency)
    for member in sorted(adjacency):
        yield (member, *member_rows(member, ordered, obs))


def sorted_edges(adjacency: Dict[str, Dict[str, float]]
                 ) -> Dict[str, List[Tuple[str, float]]]:
    """*adjacency* with each member's edges sorted: sorted once per
    compute, not once per heap pop."""
    return {member: sorted(edges.items())
            for member, edges in adjacency.items()}


def member_rows(member: str, ordered: Dict[str, List[Tuple[str, float]]],
                obs: Observability) -> Tuple[Dict[str, float], Dict[str, str]]:
    """One ``first_hop_spf`` from *member* over the sorted edges
    *ordered*: its distance to, and first hop towards, every member it
    reaches."""
    if obs.enabled:
        obs.counter("perf.dijkstra_runs").inc()
    tree = first_hop_spf(member, ordered)
    return ({n: tree[n][0] for n in sorted(tree)},
            {n: hop for n, (_, hop) in tree.items() if hop is not None})


def spf_sweep(adjacency: Dict[str, Dict[str, float]], obs: Observability
              ) -> Tuple[Dict[str, Dict[str, float]], FirstHops]:
    """:func:`spf_rows` gathered: per member the distance to, and first
    hop towards, every member it reaches."""
    dist: Dict[str, Dict[str, float]] = {}
    first_hop: FirstHops = {}
    for member, reach, hops in spf_rows(adjacency, obs):
        dist[member], first_hop[member] = reach, hops
    return dist, first_hop


def candidate_view(owner_entries: Iterable[OwnerEntry]) -> CandidateView:
    """*owner_entries* grouped by prefix in selection order."""
    by_prefix: Dict[Prefix, List[OwnerEntry]] = {}
    for entry in owner_entries:
        by_prefix.setdefault(entry.prefix, []).append(entry)
    return [(prefix, sorted(enumerate(sorted(by_prefix[prefix],
                                             key=lambda e: e.owner)),
                            key=lambda ranked: ranked[1].advertised_cost))
            for prefix in sorted(by_prefix, key=str)]


def write_owner_rows(member: str, fib: VnFib, view: CandidateView,
                     dist: Dict[str, float], first_hop: Dict[str, str]
                     ) -> Tuple[int, List[Prefix]]:
    """Write, per prefix of *view*, the owner minimizing (distance +
    advertised cost, rank in owner order) into *member*'s FIB; returns
    (rows written, prefixes with a winner).  A prefix's candidates come
    by advertised cost and a total is never below its cost (distances
    are not negative), so the scan stops at the first cost above the
    best total: no later candidate can win, not even on a tie.  Rows of
    prefixes without a winner stay: the caller removes them."""
    write = fib.write
    kept: List[Prefix] = []
    written = 0
    for prefix, candidates in view:
        best: Optional[OwnerEntry] = None
        best_total = 0.0
        best_rank = 0
        for rank, entry in candidates:
            cost = entry.advertised_cost
            if best is not None and cost > best_total:
                break
            if entry.owner == member:
                total = cost
            else:
                reach = dist.get(entry.owner)
                if reach is None:
                    continue  # owner unreachable over the vN-Bone
                total = reach + cost
            if (best is None or total < best_total
                    or (total == best_total and rank < best_rank)):
                best, best_total, best_rank = entry, total, rank
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
        #: The tunnel graph the current SPF results were built from.
        self._adjacency: Optional[Dict[str, Dict[str, float]]] = None
        #: The candidate view, by prefix, the FIBs in ``_written`` were
        #: written from, and member -> the ``VnFib`` object written.
        self._view: Dict[Prefix, Candidates] = {}
        self._written: Dict[str, VnFib] = {}
        #: What the SPF update, the skip and the delta write did (see
        #: :meth:`gate_stats`).
        self.rows_settled = 0
        self.members_written = 0
        self.members_skipped = 0
        self.rows_visited = 0
        self.rows_written = 0
        self.rows_removed = 0

    def gate_stats(self) -> Dict[str, int]:
        """Plain-int totals of the SPF rows settled, the members skipped
        and the rows visited, written and removed."""
        return {"rows_settled": self.rows_settled,
                "members_written": self.members_written,
                "members_skipped": self.members_skipped,
                "rows_visited": self.rows_visited,
                "rows_written": self.rows_written,
                "rows_removed": self.rows_removed}

    def compute(self, states: Dict[str, VnRouterState],
                owner_entries: List[OwnerEntry]) -> None:
        """Bring every member's SPF tree up to date and write every IPvN
        FIB's delta.

        When the tunnel graph only grew since the last ``compute`` —
        every member and every edge kept at its cost — each existing
        member's tree grows in place by the added edges
        (:func:`~repro.net.network.grow_first_hop_spf`, which names the
        owners whose distance or first hop moved) and each new member
        gets a full ``first_hop_spf``; an unchanged graph adds no edge
        and moves nothing.  Any other change (a member or an edge gone,
        a cost changed) runs the full sweep and diffs it against the
        old trees.

        A member's row for a prefix is a pure function of the prefix's
        candidates and the member's distance to, and first hop towards,
        each of their owners.  So a member whose ``VnFib`` is the one
        the last ``compute`` wrote re-selects only the prefixes whose
        candidates changed and those of the owners whose distance or
        first hop moved, and loses the rows of prefixes gone or left
        with no winner by name; a member with none of these is skipped.
        A new member or a ``VnFib`` this routing did not write is
        written in full.  Only this routing writes the FIBs it
        remembers.
        """
        adjacency = tunnel_graph(states)
        old = self._adjacency
        if old is not None and all(
                member in adjacency
                and edges.items() <= adjacency[member].items()
                for member, edges in old.items()):
            moved = self._grow(adjacency, old)
        else:
            moved = self._sweep(adjacency)
        self._adjacency = adjacency
        # Ordered once: every member selects over the same view.
        view = candidate_view(owner_entries)
        old_view, self._view = self._view, dict(view)
        changed = [index for index, (prefix, candidates) in enumerate(view)
                   if old_view.get(prefix) != candidates]
        gone = [prefix for prefix in old_view if prefix not in self._view]
        #: Owner -> the positions in *view* of the prefixes it may win.
        owned: Dict[str, List[int]] = {}
        if any(moved.values()):
            for index, (_, candidates) in enumerate(view):
                for _, entry in candidates:
                    owned.setdefault(entry.owner, []).append(index)
        written = visited = rows_written = rows_removed = 0
        for member in sorted(states):
            fib = states[member].fib
            dist = self._dist.get(member, {})
            hops = self._first_hop.get(member, {})
            if self._written.get(member) is not fib:
                added, kept = write_owner_rows(member, fib, view, dist, hops)
                self._written[member] = fib
                written += 1
                visited += len(view)
                rows_written += added
                rows_removed += fib.retain(kept)
                continue
            revisit = set(changed) | {
                index for owner in moved.get(member, ())
                for index in owned.get(owner, ())}
            if not (revisit or gone):
                continue
            rows = [view[index] for index in sorted(revisit)]
            added, kept = write_owner_rows(member, fib, rows, dist, hops)
            doomed = gone
            if len(kept) < len(rows):
                routed = set(kept)
                doomed = gone + [prefix for prefix, _ in rows
                                 if prefix not in routed]
            written += 1
            visited += len(rows)
            rows_written += added
            rows_removed += fib.remove(doomed)
        self._written = {member: self._written[member]
                         for member in sorted(states)}
        skipped = len(states) - written
        self.members_written += written
        self.members_skipped += skipped
        self.rows_visited += visited
        self.rows_written += rows_written
        self.rows_removed += rows_removed
        if self.obs.enabled:
            self.obs.counter("vnbone.fib.members_written").inc(written)
            self.obs.counter("vnbone.fib.members_skipped").inc(skipped)
            self.obs.counter("vnbone.fib.rows_visited").inc(visited)
            self.obs.counter("vnbone.fib.rows_written").inc(rows_written)
            self.obs.counter("vnbone.fib.rows_removed").inc(rows_removed)

    def _grow(self, adjacency: Dict[str, Dict[str, float]],
              old: Dict[str, Dict[str, float]]) -> Dict[str, Set[str]]:
        """The SPF update over a tunnel graph that only grew: member ->
        the owners whose distance or first hop moved (new members have
        no old rows to move: their FIBs are written in full).  A member
        that joins with no tunnel adds no edge but still gets its tree."""
        added = [(member, neighbor, cost) for member in sorted(adjacency)
                 for neighbor, cost in adjacency[member].items()
                 if neighbor not in old.get(member, ())]
        # Every old member is in *adjacency*: equal sizes, same members.
        if not added and len(adjacency) == len(old):
            if self.obs.enabled:
                self.obs.counter("vnbone.spf_cache_hits").inc()
            return {}
        ordered = sorted_edges(adjacency)
        moved: Dict[str, Set[str]] = {}
        settled = 0
        for member in sorted(adjacency):
            if member in old:
                moved[member] = grow_first_hop_spf(
                    member, self._dist[member], self._first_hop[member],
                    added, ordered)
                settled += len(moved[member])
            else:
                reach, hops = member_rows(member, ordered, self.obs)
                self._dist[member], self._first_hop[member] = reach, hops
                settled += len(reach)
        self._settled(settled)
        return moved

    def _sweep(self, adjacency: Dict[str, Dict[str, float]]
               ) -> Dict[str, Set[str]]:
        """The full SPF sweep, diffed member by member against the old
        trees: member -> the owners whose distance or first hop moved."""
        # Each member's old rows go once its moved owners are known,
        # so the two sweeps are never held whole at once (peak RSS).
        old_dist, old_hops = self._dist, self._first_hop
        self._dist, self._first_hop = {}, {}
        moved: Dict[str, Set[str]] = {}
        settled = 0
        for member, reach, hops in spf_rows(adjacency, self.obs):
            self._dist[member], self._first_hop[member] = reach, hops
            settled += len(reach)
            old_reach = old_dist.pop(member, {}).items()
            old_hop = old_hops.pop(member, {}).items()
            moved[member] = ({owner for owner, _ in old_reach ^ reach.items()}
                             | {owner for owner, _ in old_hop ^ hops.items()})
        self._settled(settled)
        return moved

    def _settled(self, rows: int) -> None:
        self.rows_settled += rows
        if self.obs.enabled:
            self.obs.counter("vnbone.spf.rows_settled").inc(rows)

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
