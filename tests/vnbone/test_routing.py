"""Unit tests for vN-Bone routing (SPF, owner selection, the handler)."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import Network, Domain, Prefix, ipv4
from repro.net.address import VNAddress
from repro.net.forwarding import VnDeliver, VnDrop, VnEgress, VnForward
from repro.net.packet import vn_packet
from repro.vnbone.routing import (OwnerEntry, VnRouting, candidate_view,
                                  make_vn_handler, write_owner_rows)
from repro.vnbone.state import (VnAction, VnFib, VnRouterState,
                                vn_prefix_for_ipv4)

from tests.oracles import (reference_owner_row, vn_fib_entries,
                           vn_fib_install)


def make_states(*specs):
    """specs: (router_id, {neighbor: cost})"""
    states = {}
    for index, (rid, neighbors) in enumerate(specs, start=1):
        state = VnRouterState(version=8, router_id=rid,
                              vn_address=VNAddress((1 << 32) | index))
        for nid, cost in neighbors.items():
            state.neighbors[nid] = cost
        states[rid] = state
    return states


def local_entry(states, rid):
    return OwnerEntry(prefix=Prefix.host(states[rid].vn_address), owner=rid,
                      action=VnAction.LOCAL, origin="intra")


class TestSpf:
    def test_line_distances_and_first_hops(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 2.0}),
                             ("c", {"b": 2.0}))
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        assert routing.distance("a", "c") == 3.0
        entry = states["a"].fib.lookup(states["c"].vn_address)
        assert entry is not None
        assert entry.action is VnAction.FORWARD and entry.next_hop == "b"

    def test_asymmetric_neighbor_costs_symmetrized(self):
        states = make_states(("a", {"b": 5.0}), ("b", {}))
        states["b"].neighbors["a"] = 1.0  # cheaper view; min wins
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        assert routing.distance("a", "b") == 1.0

    def test_unreachable_member_no_route(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0}), ("c", {}))
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        assert routing.distance("a", "c") is None
        assert states["a"].fib.lookup(states["c"].vn_address) is None
        assert routing.reachable_members("a") == {"a", "b"}

    def test_path_reconstruction(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 1.0}),
                             ("c", {"b": 1.0}))
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        assert routing.path("a", "c") == ["a", "b", "c"]
        assert routing.path("a", "a") == ["a"]


class TestOwnerSelection:
    def test_multiple_owners_nearest_wins(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 1.0}),
                             ("c", {"b": 1.0}))
        external = vn_prefix_for_ipv4(Prefix.parse("10.9.0.0/16"))
        entries = [local_entry(states, r) for r in states]
        entries.append(OwnerEntry(prefix=external, owner="a",
                                  action=VnAction.EGRESS, advertised_cost=0.0))
        entries.append(OwnerEntry(prefix=external, owner="c",
                                  action=VnAction.EGRESS, advertised_cost=0.0))
        routing = VnRouting(Network(), 8)
        routing.compute(states, entries)
        target = VNAddress.self_assigned(ipv4("10.9.0.5"))
        entry_b = states["b"].fib.lookup(target)
        assert entry_b is not None and entry_b.action is VnAction.FORWARD
        entry_a = states["a"].fib.lookup(target)
        assert entry_a is not None and entry_a.action is VnAction.EGRESS

    def test_advertised_cost_dominates_distance(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 1.0}),
                             ("c", {"b": 1.0}))
        external = vn_prefix_for_ipv4(Prefix.parse("10.9.0.0/16"))
        entries = [local_entry(states, r) for r in states]
        # a is nearer to b but advertises a much worse external cost.
        entries.append(OwnerEntry(prefix=external, owner="a",
                                  action=VnAction.EGRESS, advertised_cost=100.0))
        entries.append(OwnerEntry(prefix=external, owner="c",
                                  action=VnAction.EGRESS, advertised_cost=0.0))
        routing = VnRouting(Network(), 8)
        routing.compute(states, entries)
        entry_b = states["b"].fib.lookup(VNAddress.self_assigned(ipv4("10.9.0.5")))
        assert entry_b is not None and entry_b.next_hop == "c"

    def test_unreachable_owner_skipped(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0}), ("c", {}))
        external = vn_prefix_for_ipv4(Prefix.parse("10.9.0.0/16"))
        entries = [local_entry(states, r) for r in states]
        entries.append(OwnerEntry(prefix=external, owner="c",
                                  action=VnAction.EGRESS, advertised_cost=0.0))
        routing = VnRouting(Network(), 8)
        routing.compute(states, entries)
        assert states["a"].fib.lookup(
            VNAddress.self_assigned(ipv4("10.9.0.5"))) is None


#: An external block every test below can hand to any owner.
EXTERNAL = vn_prefix_for_ipv4(Prefix.parse("10.9.0.0/16"))


def egress(owner, cost, origin="egress"):
    return OwnerEntry(prefix=EXTERNAL, owner=owner, action=VnAction.EGRESS,
                      advertised_cost=cost, origin=origin)


def square(b_to_d, c_to_d):
    """a reaches d over b or over c, every other tunnel of cost 1."""
    return make_states(("a", {"b": 1.0, "c": 1.0}),
                       ("b", {"a": 1.0, "d": b_to_d}),
                       ("c", {"a": 1.0, "d": c_to_d}),
                       ("d", {"b": b_to_d, "c": c_to_d}))


def fresh_fibs(states, entries):
    """Every member's entries as a routing with no memory writes them."""
    fresh = {m: dataclasses.replace(state, fib=VnFib())
             for m, state in states.items()}
    VnRouting(Network(), 8).compute(fresh, entries)
    return {m: vn_fib_entries(state.fib) for m, state in fresh.items()}


def rewire(states, new_states):
    """Give *states* (and so their FIBs) the tunnels of *new_states*."""
    for member, state in states.items():
        state.neighbors = dict(new_states[member].neighbors)


class TestDeltaWrite:
    """A second ``compute`` into the FIBs it wrote re-selects only what
    moved; each FIB must still equal a memoryless routing's."""

    def test_an_owner_that_moves_only_its_first_hop_is_reselected(self):
        states = square(1.0, 2.0)
        entries = [local_entry(states, r) for r in states] + [
            egress("d", 0.0)]
        routing = VnRouting(Network(), 8)
        routing.compute(states, entries)
        assert states["a"].fib.lookup(states["d"].vn_address).next_hop == "b"
        # a's distance to d stays 2.0; only its first hop moves.
        rewire(states, square(2.0, 1.0))
        routing.compute(states, entries)
        assert routing.distance("a", "d") == 2.0
        assert states["a"].fib.lookup(states["d"].vn_address).next_hop == "c"
        assert {m: vn_fib_entries(s.fib) for m, s in states.items()} == \
            fresh_fibs(states, entries)

    def test_a_changed_candidate_list_is_reselected(self):
        states = square(1.0, 1.0)
        local = [local_entry(states, r) for r in states]
        routing = VnRouting(Network(), 8)
        routing.compute(states, local + [egress("d", 5.0)])
        visited = routing.rows_visited
        # Same tunnels (the sweep is reused), one prefix's owners change.
        entries = local + [egress("d", 5.0), egress("a", 0.0)]
        routing.compute(states, entries)
        assert routing.rows_visited - visited == len(states)
        assert states["b"].fib.lookup(
            VNAddress.self_assigned(ipv4("10.9.0.5"))).next_hop == "a"
        assert {m: vn_fib_entries(s.fib) for m, s in states.items()} == \
            fresh_fibs(states, entries)

    def test_a_gone_prefix_leaves_every_fib_by_name(self):
        states = square(1.0, 1.0)
        local = [local_entry(states, r) for r in states]
        routing = VnRouting(Network(), 8)
        routing.compute(states, local + [egress("d", 0.0)])
        visited, removed = routing.rows_visited, routing.rows_removed
        routing.compute(states, local)
        assert routing.rows_visited == visited
        assert routing.rows_removed - removed == len(states)
        assert {m: vn_fib_entries(s.fib) for m, s in states.items()} == \
            fresh_fibs(states, local)

    def test_a_prefix_left_with_no_reachable_owner_leaves_the_fib(self):
        states = square(1.0, 1.0)
        entries = [local_entry(states, r) for r in states] + [
            egress("d", 0.0)]
        routing = VnRouting(Network(), 8)
        routing.compute(states, entries)
        rewire(states, make_states(("a", {"b": 1.0, "c": 1.0}),
                                   ("b", {"a": 1.0}), ("c", {"a": 1.0}),
                                   ("d", {})))
        routing.compute(states, entries)
        assert states["a"].fib.lookup(
            VNAddress.self_assigned(ipv4("10.9.0.5"))) is None
        assert {m: vn_fib_entries(s.fib) for m, s in states.items()} == \
            fresh_fibs(states, entries)


def fresh_trees(states, entries):
    """Every member's distances and first hops as a routing with no
    memory sweeps them."""
    fresh = VnRouting(Network(), 8)
    fresh.compute({m: dataclasses.replace(state, fib=VnFib())
                   for m, state in states.items()}, entries)
    return fresh._dist, fresh._first_hop


def line():
    """a - b - c, tunnels of cost 1."""
    return make_states(("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 1.0}),
                       ("c", {"b": 1.0}))


class TestGrownTunnelGraph:
    """A tunnel graph that only grew grows the existing members' trees
    in place and sweeps only the new members; a removed or re-costed
    tunnel sweeps every member in full.  Trees and FIBs must equal a
    memoryless routing's."""

    def recompute(self, states, new_states):
        """Compute over *states*, rewire them to *new_states* (members
        only there join), compute again; returns the routing and the
        rows the second compute settled."""
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        settled = routing.rows_settled
        rewire(states, new_states)
        states = {**new_states, **states}
        entries = [local_entry(states, r) for r in states]
        self.compute_and_check(routing, states)
        return routing, routing.rows_settled - settled

    def compute_and_check(self, routing, states):
        entries = [local_entry(states, r) for r in states]
        routing.compute(states, entries)
        assert (routing._dist, routing._first_hop) == \
            fresh_trees(states, entries)
        assert {m: vn_fib_entries(s.fib) for m, s in states.items()} == \
            fresh_fibs(states, entries)

    def test_a_joining_member_settles_only_what_moved(self):
        routing, settled = self.recompute(line(), make_states(
            ("a", {"b": 1.0, "d": 0.5}), ("b", {"a": 1.0, "c": 1.0}),
            ("c", {"b": 1.0, "d": 0.5}), ("d", {"a": 0.5, "c": 0.5})))
        # a and c each move the other and reach d, b reaches d, and d's
        # own tree is swept in full.
        assert settled == 2 + 1 + 2 + 4
        assert routing.path("a", "c") == ["a", "d", "c"]
        assert routing.path("b", "d") == ["b", "a", "d"]

    def test_a_tunnel_between_existing_members_is_seen_from_both_ends(self):
        routing, settled = self.recompute(line(), make_states(
            ("a", {"b": 1.0, "c": 1.5}), ("b", {"a": 1.0, "c": 1.0}),
            ("c", {"b": 1.0, "a": 1.5})))
        assert settled == 2
        assert routing.path("a", "c") == ["a", "c"]
        assert routing.path("c", "a") == ["c", "a"]

    def test_a_member_joining_with_no_tunnel_gets_its_tree(self):
        # c joins with no tunnel (its router crashed, say), then gains one.
        routing, settled = self.recompute(make_states(
            ("a", {"b": 1.0}), ("b", {"a": 1.0})), make_states(
            ("a", {"b": 1.0}), ("b", {"a": 1.0}), ("c", {})))
        assert settled == 1
        assert routing.distance("c", "c") == 0.0
        assert routing.reachable_members("c") == {"c"}
        states = make_states(("a", {"b": 1.0, "c": 1.0}), ("b", {"a": 1.0}),
                             ("c", {"a": 1.0}))
        self.compute_and_check(routing, states)
        assert routing.path("b", "c") == ["b", "a", "c"]

    def test_a_lone_member_joining_an_empty_graph_gets_its_tree(self):
        routing, settled = self.recompute({}, make_states(("a", {})))
        assert settled == 1
        assert routing.distance("a", "a") == 0.0

    def test_an_unchanged_graph_settles_nothing(self):
        _, settled = self.recompute(line(), line())
        assert settled == 0

    def test_a_removed_tunnel_sweeps_in_full(self):
        routing, settled = self.recompute(square(1.0, 1.0), make_states(
            ("a", {"b": 1.0, "c": 1.0}), ("b", {"a": 1.0}),
            ("c", {"a": 1.0, "d": 1.0}), ("d", {"c": 1.0})))
        assert settled == 4 * 4
        assert routing.path("a", "d") == ["a", "c", "d"]

    def test_a_recosted_tunnel_sweeps_in_full(self):
        routing, settled = self.recompute(line(), make_states(
            ("a", {"b": 1.0}), ("b", {"a": 1.0, "c": 3.0}),
            ("c", {"b": 3.0})))
        assert settled == 3 * 3
        assert routing.distance("a", "c") == 4.0


class TestCostBoundedSelection:
    """Candidates come by advertised cost, the scan stops at the first
    cost above the best total, and ties go to owner order."""

    def select(self, member, entries, dist):
        fib = VnFib()
        hops = {owner: f"via-{owner}" for owner in dist}
        write_owner_rows(member, fib, candidate_view(entries), dist, hops)
        return vn_fib_entries(fib)

    def test_a_tie_at_the_bound_goes_to_the_earlier_owner(self):
        # b is reached first (cost 4) with total 5; a's own cost 5 equals
        # that total, so the scan must go on and a wins the tie.
        [row] = self.select("a", [egress("a", 5.0, "mine"),
                                  egress("b", 4.0, "theirs")], {"b": 1.0})
        assert (row.action, row.origin) == (VnAction.EGRESS, "mine")

    def test_a_cheaper_owner_later_in_owner_order_is_reached(self):
        entries = [egress("a", 1.0, "a"), egress("b", 5.0, "b"),
                   egress("c", 0.0, "c")]
        [row] = self.select("m", entries, {"a": 1.0, "b": 1.0, "c": 1.0})
        assert (row.origin, row.metric) == ("c", 1.0)


_owner = st.sampled_from(["a", "b", "c", "d"])
#: 10_000.0 + 5.06 == 10_000.0 + 5.0600000000000005: totals that tie
#: only after rounding.
_cost = st.sampled_from([0.0, 1.0, 5.0, 5.06, 5.0600000000000005,
                         10_000.0])
_reach = st.sampled_from([0.0, 1.0, 5.06, 10_000.0])


@settings(deadline=None)
@example(member="a", offers=[(0, "b", 5.0600000000000005), (0, "b", 5.06)],
         dist={"b": 10_000.0})
@example(member="a", offers=[(0, "a", 5.0), (0, "b", 4.0)], dist={"b": 1.0})
@example(member="a", offers=[(0, "c", 0.0)], dist={})
@given(member=_owner,
       offers=st.lists(st.tuples(st.integers(0, 2), _owner, _cost),
                       max_size=8),
       dist=st.dictionaries(_owner, _reach))
def test_cost_bounded_selection_equals_the_owner_order_rule(member, offers,
                                                            dist):
    """``write_owner_rows`` over ``candidate_view`` keeps, per prefix,
    the first minimum of (distance + advertised cost, owner) in owner
    order, as ``reference_vn_fibs`` does: equal costs, an owner offered
    twice, zero reach, owners missing from *dist* (unreachable) and
    rounded ties included.  The member reaches itself at 0.0."""
    prefixes = [vn_prefix_for_ipv4(Prefix.parse(f"10.{i}.0.0/16"))
                for i in range(3)]
    entries = [OwnerEntry(prefix=prefixes[p], owner=owner,
                          action=VnAction.EGRESS, advertised_cost=cost,
                          origin=f"offer{i}")
               for i, (p, owner, cost) in enumerate(offers)]
    dist = {**dist, member: 0.0}
    hops = {owner: f"via-{owner}" for owner in dist if owner != member}
    fib = VnFib()
    write_owner_rows(member, fib, candidate_view(entries), dist, hops)
    expected = VnFib()
    for prefix in prefixes:
        row = reference_owner_row(
            member, prefix, [e for e in entries if e.prefix == prefix],
            dist, hops)
        if row is not None:
            vn_fib_install(expected, row)
    assert vn_fib_entries(fib) == vn_fib_entries(expected)


class TestHandler:
    def make_node(self, state):
        from repro.net.node import Router

        node = Router(node_id=state.router_id, ipv4=ipv4("10.1.0.1"), domain_id=1)
        node.set_vn_state(state.version, state)
        return node

    def test_deliver_to_own_address(self):
        states = make_states(("a", {}))
        handler = make_vn_handler(8)
        node = self.make_node(states["a"])
        packet = vn_packet(VNAddress(9), states["a"].vn_address)
        assert isinstance(handler(node, packet), VnDeliver)

    def test_forward_entry(self):
        states = make_states(("a", {"b": 1.0}), ("b", {"a": 1.0}))
        routing = VnRouting(Network(), 8)
        routing.compute(states, [local_entry(states, r) for r in states])
        handler = make_vn_handler(8)
        node = self.make_node(states["a"])
        packet = vn_packet(VNAddress(9), states["b"].vn_address)
        decision = handler(node, packet)
        assert isinstance(decision, VnForward) and decision.next_vn_hop == "b"

    def test_fallback_exit_for_self_addressed(self):
        states = make_states(("a", {}))
        handler = make_vn_handler(8, fallback_exit=True)
        node = self.make_node(states["a"])
        dst = VNAddress.self_assigned(ipv4("10.9.0.7"))
        decision = handler(node, vn_packet(VNAddress(9), dst))
        assert isinstance(decision, VnEgress)
        assert decision.ipv4_dst == ipv4("10.9.0.7")

    def test_no_fallback_drops(self):
        states = make_states(("a", {}))
        handler = make_vn_handler(8, fallback_exit=False)
        node = self.make_node(states["a"])
        dst = VNAddress.self_assigned(ipv4("10.9.0.7"))
        assert isinstance(handler(node, vn_packet(VNAddress(9), dst)), VnDrop)

    def test_native_unroutable_drops_even_with_fallback(self):
        states = make_states(("a", {}))
        handler = make_vn_handler(8, fallback_exit=True)
        node = self.make_node(states["a"])
        decision = handler(node, vn_packet(VNAddress(9), VNAddress((5 << 32) | 1)))
        assert isinstance(decision, VnDrop)

    def test_wrong_version_drops(self):
        states = make_states(("a", {}))
        handler = make_vn_handler(9)
        node = self.make_node(states["a"])  # state is version 8
        packet = vn_packet(VNAddress(9, version=9), VNAddress(2, version=9))
        assert isinstance(handler(node, packet), VnDrop)

    def test_egress_entry_with_explicit_target(self):
        states = make_states(("a", {}))
        target = ipv4("10.2.0.3")
        from repro.vnbone.state import VnFibEntry

        host_addr = VNAddress((1 << 32) | 77)
        vn_fib_install(states["a"].fib,
                       VnFibEntry(prefix=Prefix.host(host_addr),
                                  action=VnAction.EGRESS,
                                  egress_ipv4=target))
        handler = make_vn_handler(8)
        node = self.make_node(states["a"])
        decision = handler(node, vn_packet(VNAddress(9), host_addr))
        assert isinstance(decision, VnEgress) and decision.ipv4_dst == target
