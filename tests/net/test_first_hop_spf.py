"""``first_hop_spf``: the one SPF under link-state FIBs and both vN FIBs.

Distances are the easy half; what every FIB inherits and no other test
states is the tie-break — among equal-cost shortest paths a node keeps
the smallest first-hop id.  ``tests/oracles.py::bellman_ford_first_hops``
says that without a heap or a settling order.

``grow_first_hop_spf`` updates a result after the graph gained edges;
a fresh ``first_hop_spf`` over the grown graph is its oracle, float for
float, tie-break included.
"""

import pytest

from repro.net.network import first_hop_spf, grow_first_hop_spf

from tests.oracles import bellman_ford_first_hops


def _adjacency(edges):
    adjacency = {}
    for a, b, cost in edges:
        adjacency.setdefault(a, []).append((b, cost))
        adjacency.setdefault(b, []).append((a, cost))
    return {node: sorted(out) for node, out in adjacency.items()}


def test_equal_cost_paths_keep_the_smallest_first_hop():
    # s - {b, a} - t, all unit cost: two shortest paths to t.
    edges = [("s", "b", 1.0), ("s", "a", 1.0), ("b", "t", 1.0),
             ("a", "t", 1.0)]
    tree = first_hop_spf("s", _adjacency(edges))
    assert tree == {"s": (0.0, None), "a": (1.0, "a"), "b": (1.0, "b"),
                    "t": (2.0, "a")}
    assert list(tree) == ["s", "a", "b", "t"]  # settling order


def _grown(source, edges, added_edges):
    """Grow ``first_hop_spf(source, edges)`` by the pairs of
    *added_edges* not already joined (a pair keeps its first cost);
    returns the grown maps, the moved set, the old search and a fresh
    search over the grown graph."""
    costs = {}
    for a, b, cost in edges + added_edges:
        costs.setdefault(tuple(sorted((a, b))), cost)
    old_pairs = {tuple(sorted((a, b))) for a, b, _ in edges}
    old = [(a, b, cost) for (a, b), cost in costs.items()
           if (a, b) in old_pairs]
    added = [(u, v, cost) for (a, b), cost in costs.items()
             if (a, b) not in old_pairs for u, v in ((a, b), (b, a))]
    tree = first_hop_spf(source, _adjacency(old))
    dist, hops = _split(tree)
    grown = _adjacency([(a, b, cost) for (a, b), cost in costs.items()])
    moved = grow_first_hop_spf(source, dist, hops, added, grown)
    return dist, hops, moved, tree, first_hop_spf(source, grown)


def _split(tree):
    return ({node: d for node, (d, _) in tree.items()},
            {node: hop for node, (_, hop) in tree.items() if hop is not None})


def test_a_new_equal_cost_path_with_a_smaller_first_hop_takes_over():
    # s - y - t was the only path; s - x - t ties it with first hop x.
    dist, hops, moved, _, fresh = _grown(
        "s", [("s", "y", 1.0), ("y", "t", 1.0)],
        [("s", "x", 1.0), ("x", "t", 1.0)])
    assert (dist, hops) == _split(fresh)
    assert hops["t"] == "x" and moved == {"x", "t"}


def test_a_neighbour_whose_distance_rounds_away_still_moves_the_first_hop():
    # u's distance falls from 0.1 + 0.2 = 0.30000000000000004 (via a) to
    # 0.3 (via u itself); 1.0 added to either is 1.3, so v's distance
    # stays, but a fresh search reaches v through u's new entry.  Taking
    # only offers below v's entry would keep first hop a.
    dist, hops, moved, _, fresh = _grown(
        "s", [("s", "a", 0.1), ("a", "u", 0.2), ("u", "v", 1.0)],
        [("s", "u", 0.3)])
    assert (dist, hops) == _split(fresh)
    assert (dist["v"], hops["v"]) == (1.3, "u") and moved == {"u", "v"}


def test_no_added_edge_moves_nothing():
    dist, hops, moved, tree, _ = _grown("s", [("s", "a", 1.0)], [])
    assert moved == set() and (dist, hops) == _split(tree)


def test_unreachable_nodes_and_an_isolated_source():
    edges = [("s", "a", 2.0), ("x", "y", 1.0)]
    assert first_hop_spf("s", _adjacency(edges)) == {
        "s": (0.0, None), "a": (2.0, "a")}
    assert first_hop_spf("lonely", {}) == {"lonely": (0.0, None)}


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

_node = st.sampled_from([f"n{i}" for i in range(7)])
_grow_node = st.sampled_from([f"n{i}" for i in range(9)])
#: Two costs only, so equal-cost ties are the rule, not the exception.
_edge = st.tuples(_node, _node, st.sampled_from([1.0, 2.0])).filter(
    lambda e: e[0] != e[1])


@given(source=_node, edges=st.lists(_edge, max_size=14))
def test_first_hop_spf_equals_bellman_ford_oracle(source, edges):
    """Random weighted graphs with ties and unreachable nodes: same
    reachable set, same distances, same first hop for every node."""
    assert first_hop_spf(source, _adjacency(edges)) == \
        bellman_ford_first_hops(source, edges)


#: Tie-prone costs: equal integers, and decimals whose sums tie only
#: after rounding (0.1 + 0.2 is 0.30000000000000004, not 0.3).
_grow_edge = st.tuples(
    _grow_node, _grow_node,
    st.sampled_from([1.0, 2.0, 0.1, 0.2, 0.3, 0.30000000000000004])
).filter(lambda e: e[0] != e[1])


@given(source=_grow_node, edges=st.lists(_grow_edge, max_size=14),
       added=st.lists(_grow_edge, max_size=8))
@example(source="s", edges=[("s", "a", 0.1), ("a", "u", 0.2),
                            ("u", "v", 1.0)], added=[("s", "u", 0.3)])
def test_growing_equals_a_fresh_search_over_the_grown_graph(source, edges,
                                                            added):
    """A random graph, then random added edges (new nodes among them):
    the grown result equals a fresh search over the grown graph, and
    the returned set is exactly the nodes whose entry changed."""
    dist, hops, moved, tree, fresh = _grown(source, edges, added)
    assert (dist, hops) == _split(fresh)
    assert moved == {node for node, entry in fresh.items()
                     if tree.get(node) != entry}
