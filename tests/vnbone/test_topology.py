"""Unit tests for vN-Bone topology construction."""

import pytest

from repro.net import Domain, Network, Prefix, Relationship
from repro.net.errors import DeploymentError
from repro.core.orchestrator import Orchestrator
from repro.vnbone.topology import VnBoneTopology


def ring_and_line_network():
    """AS1: 6-router ring (link-state); AS2: 4-router line (DV);
    AS3: 2-router stub. Chain AS1 - AS2 - AS3."""
    net = Network()
    for asn in (1, 2, 3):
        net.add_domain(Domain(asn=asn, name=f"as{asn}",
                              prefix=Prefix.parse(f"10.{asn}.0.0/16")))
    ring = [f"a{i}" for i in range(6)]
    for rid in ring:
        net.add_router(rid, 1, is_border=rid == "a0")
    for i in range(6):
        net.add_link(ring[i], ring[(i + 1) % 6])
    line = [f"b{i}" for i in range(4)]
    for rid in line:
        net.add_router(rid, 2, is_border=rid in ("b0", "b3"))
    for i in range(3):
        net.add_link(line[i], line[i + 1])
    net.add_router("c0", 3, is_border=True)
    net.add_router("c1", 3)
    net.add_link("c0", "c1")
    net.connect_domains(2, 1, "b0", "a0", Relationship.PROVIDER)
    net.connect_domains(3, 2, "c0", "b3", Relationship.PROVIDER)
    return net


@pytest.fixture
def orch():
    orchestrator = Orchestrator(ring_and_line_network(),
                                igp_overrides={2: "distancevector"})
    orchestrator.converge()
    return orchestrator


def topo(orchestrator, k=2, anchor=None):
    return VnBoneTopology(orchestrator, version=8, k_neighbors=k,
                          anchor_asn=anchor)


def edges(tunnels):
    return {t.endpoints() for t in tunnels}


def is_connected(members, tunnels):
    adjacency = {m: set() for m in members}
    for t in tunnels:
        if t.a in adjacency and t.b in adjacency:
            adjacency[t.a].add(t.b)
            adjacency[t.b].add(t.a)
    seen = set()
    stack = [next(iter(members))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node] - seen)
    return seen == set(members)


class TestIntraDomain:
    def test_k_closest_in_linkstate_domain(self, orch):
        members = {"a0", "a2", "a4"}
        tunnels = topo(orch, k=2).build({1: members}, {m: i for i, m in
                                                       enumerate(sorted(members))})
        assert is_connected(members, tunnels)
        # Ring distances a0-a2, a2-a4, a4-a0 are all 2: full triangle.
        assert edges(tunnels) == {("a0", "a2"), ("a2", "a4"), ("a0", "a4")}

    def test_k1_with_repair_stays_connected(self, orch):
        members = {"a0", "a1", "a3", "a4"}
        tunnels = topo(orch, k=1).build({1: members},
                                        {m: i for i, m in enumerate(sorted(members))})
        # k=1 pairs up (a0,a1) and (a3,a4); repair must bridge them.
        assert is_connected(members, tunnels)
        assert any(t.kind == "repair" for t in tunnels)

    def test_dv_domain_uses_bootstrap(self, orch):
        members = {"b0", "b1", "b3"}
        join = {"b3": 1, "b0": 2, "b1": 3}
        tunnels = topo(orch, k=1).build({2: members}, join)
        kinds = {t.kind for t in tunnels}
        assert kinds == {"bootstrap-intra"}
        assert is_connected(members, tunnels)
        # b0 joined second: connects to b3 (the only earlier member).
        assert ("b0", "b3") in edges(tunnels)

    def test_single_member_no_intra_tunnels(self, orch):
        tunnels = topo(orch).build({1: {"a0"}}, {"a0": 1})
        assert tunnels == []

    def test_k_must_be_positive(self, orch):
        with pytest.raises(DeploymentError):
            VnBoneTopology(orch, version=8, k_neighbors=0)


class TestInterDomain:
    def test_adjacent_adopters_tunnel_over_peering_link(self, orch):
        members = {1: {"a2"}, 2: {"b2"}}
        join = {"a2": 1, "b2": 2}
        tunnels = topo(orch).build(members, join)
        inter = [t for t in tunnels if t.kind == "inter"]
        assert len(inter) == 1
        # Tunnel endpoints are the members closest to the border routers.
        assert inter[0].endpoints() == ("a2", "b2")
        # Cost includes the intra paths to the borders plus the link.
        assert inter[0].cost == pytest.approx(2 + 1 + 2)

    def test_isolated_adopter_bootstraps(self, orch):
        # AS1 and AS3 adopt; AS2 between them does not.
        members = {1: {"a2"}, 3: {"c1"}}
        join = {"a2": 1, "c1": 2}
        tunnels = topo(orch).build(members, join)
        kinds = {t.kind for t in tunnels}
        assert "bootstrap-inter" in kinds or "repair" in kinds
        assert is_connected({"a2", "c1"}, tunnels)

    def test_anchor_connectivity_rule(self, orch):
        members = {1: {"a2"}, 3: {"c1"}}
        join = {"a2": 1, "c1": 2}
        tunnels = topo(orch, anchor=1).build(members, join)
        assert is_connected({"a2", "c1"}, tunnels)

    def test_three_domains_fully_connected(self, orch):
        members = {1: {"a0", "a3"}, 2: {"b1"}, 3: {"c0"}}
        join = {m: i for i, m in enumerate(["a0", "a3", "b1", "c0"])}
        tunnels = topo(orch, anchor=1).build(members, join)
        assert is_connected({"a0", "a3", "b1", "c0"}, tunnels)


class TestCongruence:
    def test_congruent_when_deployment_contiguous(self, orch):
        members = {1: {"a0"}, 2: {"b0"}}
        tunnels = topo(orch).build(members, {"a0": 1, "b0": 2})
        report = topo(orch).congruence(tunnels)
        assert report["inter_congruent_fraction"] == 1.0

    def test_bootstrap_tunnel_not_congruent(self, orch):
        members = {1: {"a2"}, 3: {"c1"}}
        tunnels = topo(orch).build(members, {"a2": 1, "c1": 2})
        report = topo(orch).congruence(tunnels)
        # AS1 and AS3 are not BGP neighbors: the long-haul tunnel is
        # incongruent with the physical topology.
        assert report["inter_congruent_fraction"] == 0.0
        assert report["inter_tunnels"] == 1.0

    def test_mean_tunnel_cost_reported(self, orch):
        members = {1: {"a0", "a2"}}
        tunnels = topo(orch).build(members, {"a0": 1, "a2": 2})
        report = topo(orch).congruence(tunnels)
        assert report["mean_tunnel_cost"] > 0

    def test_member_distance_accessor(self, orch):
        t = topo(orch)
        t.build({1: {"a0"}}, {"a0": 1})
        assert t.member_distance("a0", "a3", 1) == 3.0
        assert t.member_distance("a0", "b0", 1) is None


class TestDistancesFollowTheTopology:
    """Distances come from the network's path cache, so they are never
    older than ``topology_version`` — with no ``build()`` in between."""

    MEMBERS = {"a0", "a3", "a4"}

    def _assert_current(self, t, net):
        for member in self.MEMBERS:
            for target in ("a1", "a2", "a5"):
                truth = net.shortest_path(member, target,
                                          intra_domain_only=True)
                assert t.member_distance(member, target, 1) == \
                    (truth[0] if truth else None)
        for target in ("a1", "a2", "a5"):
            assert t.nearest_member(target, self.MEMBERS) == min(
                (net.shortest_path(m, target, intra_domain_only=True)[0], m)
                for m in self.MEMBERS)

    def test_link_fail_and_restore_move_member_distance(self, orch):
        net = orch.network
        t = topo(orch)
        t.build({1: self.MEMBERS}, {"a0": 1, "a3": 2, "a4": 3})
        assert t.member_distance("a0", "a1", 1) == 1.0
        assert t.nearest_member("a1", self.MEMBERS) == (1.0, "a0")
        link = net.link_between("a0", "a1")
        link.fail()  # a0 now reaches a1 the long way round the ring
        assert t.member_distance("a0", "a1", 1) == 5.0
        assert t.nearest_member("a1", self.MEMBERS) == (2.0, "a3")
        self._assert_current(t, net)
        link.restore()
        assert t.member_distance("a0", "a1", 1) == 1.0
        self._assert_current(t, net)

    def test_nearest_member_of_a_member_is_itself_else_none(self, orch):
        t = topo(orch)
        assert t.nearest_member("a3", self.MEMBERS) == (0.0, "a3")
        assert t.nearest_member("b1", self.MEMBERS) is None  # other AS
