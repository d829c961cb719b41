"""``first_hop_spf``: the one SPF under link-state FIBs and both vN FIBs.

Distances are the easy half; what every FIB inherits and no other test
states is the tie-break — among equal-cost shortest paths a node keeps
the smallest first-hop id.  ``tests/oracles.py::bellman_ford_first_hops``
says that without a heap or a settling order.
"""

import pytest

from repro.net.network import first_hop_spf

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


def test_unreachable_nodes_and_an_isolated_source():
    edges = [("s", "a", 2.0), ("x", "y", 1.0)]
    assert first_hop_spf("s", _adjacency(edges)) == {
        "s": (0.0, None), "a": (2.0, "a")}
    assert first_hop_spf("lonely", {}) == {"lonely": (0.0, None)}


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

_node = st.sampled_from([f"n{i}" for i in range(7)])
#: Two costs only, so equal-cost ties are the rule, not the exception.
_edge = st.tuples(_node, _node, st.sampled_from([1.0, 2.0])).filter(
    lambda e: e[0] != e[1])


@given(source=_node, edges=st.lists(_edge, max_size=14))
def test_first_hop_spf_equals_bellman_ford_oracle(source, edges):
    """Random weighted graphs with ties and unreachable nodes: same
    reachable set, same distances, same first hop for every node."""
    assert first_hop_spf(source, _adjacency(edges)) == \
        bellman_ford_first_hops(source, edges)
