"""vN-Bone topology construction (Section 3.3.1).

Builds the virtual links (IPv4 tunnels) among IPvN routers:

* **Intra-domain**: in link-state domains, every member knows every
  other member from the LSDB, so each picks its ``k`` closest members
  as neighbors; partitions "can be easily detected and repaired because
  every router has complete knowledge of all other IPvN routers".  In
  distance-vector domains that knowledge is unavailable (paper footnote
  3), so construction falls back to **anycast bootstrap**: each joining
  member connects to the nearest *earlier-joined* member — which is
  what its anycast probe, sent before it starts advertising the address
  itself (footnote 4), would have found.

* **Inter-domain**: adopting domains that are BGP neighbors set up
  tunnels along their peering links; an adopting domain with no
  adopting neighbor bootstraps a long-haul tunnel to the member its
  anycast probe discovers; and every domain ensures it is connected
  (directly or indirectly) to the **anchor** — the default provider of
  the anycast address — the paper's simple inter-domain
  partition-prevention rule.

As deployment spreads, re-running construction makes the vN-Bone
increasingly congruent with the physical topology;
:meth:`VnBoneTopology.congruence` quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Collection, Dict, Iterable, List, Optional, Set,
                    Tuple)

from repro.net.errors import DeploymentError
from repro.net.link import LinkScope
from repro.net.network import Network
from repro.perf.cache import Tree
from repro.core.orchestrator import Orchestrator


@dataclass(frozen=True)
class VnTunnel:
    """One virtual link of the vN-Bone."""

    a: str
    b: str
    cost: float
    #: "intra", "inter", "bootstrap-intra", "bootstrap-inter", "repair".
    kind: str

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class _UnionFind:
    def __init__(self, items: Iterable[str]) -> None:
        self._parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[max(ra, rb)] = min(ra, rb)
        return True

    def components(self) -> Dict[str, Set[str]]:
        groups: Dict[str, Set[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), set()).add(item)
        return groups


class VnBoneTopology:
    """Constructs vN-Bone tunnels for one deployment."""

    def __init__(self, orchestrator: Orchestrator, version: int,
                 k_neighbors: int = 2, anchor_asn: Optional[int] = None) -> None:
        if k_neighbors < 1:
            raise DeploymentError("k_neighbors must be at least 1")
        self.orchestrator = orchestrator
        self.network: Network = orchestrator.network
        self.version = version
        self.k_neighbors = k_neighbors
        self.anchor_asn = anchor_asn

    # -- distance helpers -----------------------------------------------------
    def _intra_tree(self, member: str, asn: int) -> Tree:
        """*member*'s shortest-path tree inside its AS, from the
        network's :class:`~repro.perf.cache.PathCache`."""
        return self.network.shortest_path_tree(member, intra_domain_only=True,
                                               domain=asn)

    def member_distance(self, member: str, target_id: str,
                        asn: int) -> Optional[float]:
        """Intra-domain IGP distance from a member to any node of its AS."""
        entry = self._intra_tree(member, asn).get(target_id)
        return None if entry is None else entry[0]

    def nearest_member(self, target_id: str, members: Collection[str]
                       ) -> Optional[Tuple[float, str]]:
        """``(cost, member)`` of the member closest to *target_id* by
        intra-domain distance in the target's AS — the target itself if
        it is a member, ties to the smallest id — or ``None`` when no
        member reaches it."""
        if target_id in members:
            return 0.0, target_id
        asn = self.network.node(target_id).domain_id
        reach = ((self.member_distance(member, target_id, asn), member)
                 for member in members)
        return min((near for near in reach if near[0] is not None),
                   default=None)

    # -- construction ------------------------------------------------------------
    def build(self, members_by_domain: Dict[int, Set[str]],
              join_order: Dict[str, int]) -> List[VnTunnel]:
        """Construct all tunnels.  ``join_order`` records deployment order
        (used by the anycast-bootstrap paths)."""
        tunnels: List[VnTunnel] = []
        for asn in sorted(members_by_domain):
            tunnels.extend(self._build_intra(asn, members_by_domain[asn], join_order))
        tunnels.extend(self._build_inter(members_by_domain, join_order))
        # Anchor (default provider) connectivity: every component joins
        # the one holding the anchor's first member.
        all_members = sorted({m for members in members_by_domain.values()
                              for m in members})
        if len(all_members) >= 2:
            anchor = self._anchor_member(members_by_domain, join_order)
            tunnels.extend(self._repair_partitions(
                all_members, tunnels, anchor, self.network.shortest_path_tree))
        return self._dedupe(tunnels)

    @staticmethod
    def _dedupe(tunnels: List[VnTunnel]) -> List[VnTunnel]:
        best: Dict[Tuple[str, str], VnTunnel] = {}
        for tunnel in tunnels:
            key = tunnel.endpoints()
            if key not in best or tunnel.cost < best[key].cost:
                best[key] = tunnel
        return [best[key] for key in sorted(best)]

    # -- intra-domain ----------------------------------------------------------------
    def _build_intra(self, asn: int, members: Set[str],
                     join_order: Dict[str, int]) -> List[VnTunnel]:
        ordered = sorted(members)
        if len(ordered) < 2:
            return []
        igp = self.orchestrator.igp(asn)
        if igp.supports_member_discovery:
            return self._intra_k_closest(asn, ordered)
        return self._intra_bootstrap(asn, ordered, join_order)

    def _intra_k_closest(self, asn: int, members: List[str]) -> List[VnTunnel]:
        """Every member picks its k closest members (LSDB knowledge)."""
        tunnels: List[VnTunnel] = []
        for member in members:
            tree = self._intra_tree(member, asn)
            candidates = sorted(
                ((tree[other][0], other) for other in members
                 if other != member and other in tree))
            for cost, other in candidates[:self.k_neighbors]:
                tunnels.append(VnTunnel(a=member, b=other, cost=cost, kind="intra"))
        tunnels.extend(self._repair_partitions(
            members, tunnels, members[0], lambda m: self._intra_tree(m, asn)))
        return tunnels

    def _intra_bootstrap(self, asn: int, members: List[str],
                         join_order: Dict[str, int]) -> List[VnTunnel]:
        """Distance-vector domains: join via anycast, one member at a time.

        Each joiner connects to the nearest member that joined before it
        (what its pre-advertisement anycast probe resolves to), plus up
        to ``k - 1`` additional earlier members learned through vN-Bone
        routing gossip afterwards.
        """
        tunnels: List[VnTunnel] = []
        by_join = sorted(members, key=lambda m: (join_order.get(m, 0), m))
        for index, member in enumerate(by_join):
            earlier = by_join[:index]
            if not earlier:
                continue
            tree = self._intra_tree(member, asn)
            candidates = sorted((tree[e][0], e) for e in earlier if e in tree)
            for cost, other in candidates[:self.k_neighbors]:
                tunnels.append(VnTunnel(a=member, b=other, cost=cost,
                                        kind="bootstrap-intra"))
        return tunnels

    def _repair_partitions(self, members: List[str], tunnels: List[VnTunnel],
                           root: str, tree_of: Callable[[str], Tree]
                           ) -> List[VnTunnel]:
        """Join every member component to the one holding *root*, one
        closest pair (by *tree_of*'s distances) at a time."""
        repairs: List[VnTunnel] = []
        uf = _UnionFind(members)
        for tunnel in tunnels:
            uf.union(tunnel.a, tunnel.b)
        while True:
            components = uf.components()
            main = components.pop(uf.find(root))
            best: Optional[Tuple[float, str, str]] = None
            for component in components.values():
                for member in sorted(component):
                    tree = tree_of(member)
                    for target in sorted(main):
                        if target not in tree:
                            continue
                        key = (tree[target][0], member, target)
                        if best is None or key < best:
                            best = key
            if best is None:
                return repairs  # connected, or physically partitioned
            cost, member, target = best
            repairs.append(VnTunnel(a=member, b=target, cost=cost,
                                    kind="repair"))
            uf.union(member, target)

    # -- inter-domain ------------------------------------------------------------------
    def _build_inter(self, members_by_domain: Dict[int, Set[str]],
                     join_order: Dict[str, int]) -> List[VnTunnel]:
        tunnels: List[VnTunnel] = []
        adopting = set(members_by_domain)
        connected_domains: Set[int] = set()
        # Tunnels along peering links between adopting domains.
        for key in sorted(self.network.links):
            link = self.network.links[key]
            if link.scope is not LinkScope.INTER_DOMAIN or not link.up:
                continue
            asn_a = self.network.node(link.a).domain_id
            asn_b = self.network.node(link.b).domain_id
            if asn_a not in adopting or asn_b not in adopting:
                continue
            near_a = self.nearest_member(link.a, members_by_domain[asn_a])
            near_b = self.nearest_member(link.b, members_by_domain[asn_b])
            if near_a is None or near_b is None:
                continue
            tunnels.append(VnTunnel(a=near_a[1], b=near_b[1],
                                    cost=near_a[0] + link.cost + near_b[0],
                                    kind="inter"))
            connected_domains.update((asn_a, asn_b))
        # Anycast bootstrap for adopting domains with no adopting neighbor.
        domain_join = {asn: min(join_order.get(m, 0) for m in members)
                       for asn, members in members_by_domain.items() if members}
        for asn in sorted(adopting - connected_domains):
            earlier_members = [m for other, members in members_by_domain.items()
                               if other != asn
                               and domain_join.get(other, 0) < domain_join.get(asn, 0)
                               for m in members]
            if not earlier_members:
                continue
            joiner = min(members_by_domain[asn])
            tree = self.network.shortest_path_tree(joiner)
            candidates = sorted((tree[m][0], m) for m in earlier_members if m in tree)
            if candidates:
                cost, target = candidates[0]
                tunnels.append(VnTunnel(a=joiner, b=target, cost=cost,
                                        kind="bootstrap-inter"))
        return tunnels

    # -- anchor (default provider) connectivity ---------------------------------------------
    def _anchor_member(self, members_by_domain: Dict[int, Set[str]],
                       join_order: Dict[str, int]) -> str:
        """The first member of the anchor AS — the default provider if it
        adopted, else the earliest-joined adopting AS."""
        anchor_asn = self.anchor_asn
        if anchor_asn is None or anchor_asn not in members_by_domain:
            domain_join = {asn: min(join_order.get(m, 0) for m in members)
                           for asn, members in members_by_domain.items() if members}
            anchor_asn = min(domain_join, key=lambda a: (domain_join[a], a))
        return min(members_by_domain[anchor_asn])

    # -- congruence metric (Section 3.3.1, last paragraph) --------------------------------
    def congruence(self, tunnels: List[VnTunnel]) -> Dict[str, float]:
        """How well the vN-Bone matches the physical topology.

        * ``inter_congruent_fraction``: fraction of inter-domain tunnels
          whose endpoint domains are physical BGP neighbors;
        * ``mean_tunnel_cost``: average underlying path cost per tunnel.
        """
        inter = [t for t in tunnels if t.kind in ("inter", "bootstrap-inter", "repair")
                 and self.network.node(t.a).domain_id != self.network.node(t.b).domain_id]
        congruent = 0
        for tunnel in inter:
            asn_a = self.network.node(tunnel.a).domain_id
            asn_b = self.network.node(tunnel.b).domain_id
            if asn_b in self.network.domains[asn_a].relationships:
                congruent += 1
        mean_cost = (sum(t.cost for t in tunnels) / len(tunnels)) if tunnels else 0.0
        return {
            "tunnels": float(len(tunnels)),
            "inter_tunnels": float(len(inter)),
            "inter_congruent_fraction": (congruent / len(inter)) if inter else 1.0,
            "mean_tunnel_cost": mean_cost,
        }
