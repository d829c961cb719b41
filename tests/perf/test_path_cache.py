"""PathCache behaviour: hits, misses, invalidation, and equivalence.

The cache must be invisible except for speed: every answer it gives has
to be bit-identical to the early-exit Dijkstra oracle
(``tests/oracles.py``), and every topology mutation — link flips (the
fault injector calls ``link.fail()`` directly), node crashes, host
moves — must invalidate it.
"""

import pytest

from repro.net import Domain, Network, Prefix, Relationship
from repro.perf import PathCache

from tests.conftest import build_two_domain_network
from tests.oracles import early_exit_dijkstra


def all_node_ids(net):
    return sorted(net.nodes)


def test_cached_paths_match_raw_dijkstra():
    net = build_two_domain_network()
    ids = all_node_ids(net)
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            assert net.shortest_path(src, dst) == \
                early_exit_dijkstra(net, src, dst)
            assert net.shortest_path(src, dst, intra_domain_only=True) == \
                early_exit_dijkstra(net, src, dst, intra_domain_only=True)


def test_hit_miss_accounting():
    net = build_two_domain_network()
    stats0 = net.path_cache.stats()
    assert stats0 == {"hits": 0, "misses": 0, "invalidations": 0,
                      "entries": 0}
    net.shortest_path("h1", "h2")
    net.shortest_path("h1", "r2a")  # same source tree
    net.shortest_path("h1", "h2")
    stats = net.path_cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 2
    assert stats["entries"] == 1


def test_link_fail_invalidates_and_restore_recovers():
    net = build_two_domain_network()
    cost, path = net.shortest_path("h1", "h2")
    assert path[0] == "h1" and path[-1] == "h2"
    link = net.link_between("r1a", "r1b")

    link.fail()  # exactly what the fault injector does
    assert net.shortest_path("h1", "h2") is None
    stats = net.path_cache.stats()
    assert stats["invalidations"] == 1

    link.restore()
    assert net.shortest_path("h1", "h2") == (cost, path)
    assert net.path_cache.stats()["invalidations"] == 2


def test_crash_node_invalidates():
    net = build_two_domain_network()
    assert net.shortest_path("h1", "h2") is not None
    net.crash_node("r1b")
    assert net.shortest_path("h1", "h2") is None
    assert net.path_cache.stats()["invalidations"] >= 1


def test_move_host_invalidates():
    net = build_two_domain_network()
    cost_before, _ = net.shortest_path("h1", "h2")
    net.move_host("h1", 2, "r2a")
    cost_after, path_after = net.shortest_path("h1", "h2")
    assert path_after == ["h1", "r2a", "h2"]
    assert cost_after < cost_before
    assert net.path_cache.stats()["invalidations"] >= 1


def test_domain_filtered_tree_stays_inside_domain():
    net = build_two_domain_network()
    tree = net.shortest_path_tree("r1a", domain=1)
    dom = net.domains[1]
    allowed = dom.routers | dom.hosts
    assert set(tree) <= allowed
    assert {"r1a", "r1b", "h1"} <= set(tree)


def test_unreachable_destination_returns_none():
    net = build_two_domain_network()
    cache = PathCache(net)
    net.add_router("lonely", 1)
    assert cache.shortest_path("h1", "lonely") is None


def test_stale_version_detected_even_without_query_between_mutations():
    net = build_two_domain_network()
    net.shortest_path("h1", "h2")
    link = net.link_between("r1a", "r1b")
    link.fail()
    link.restore()  # version moved twice; cache saw neither
    assert net.shortest_path("h1", "h2") == \
        early_exit_dijkstra(net, "h1", "h2")
    assert net.path_cache.stats()["invalidations"] == 1


# -- property: the cache boundary on random graphs ----------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

N_ROUTERS = 6
#: Two costs only, so equal-cost ties are the rule, not the exception.
_cost = st.sampled_from([1.0, 2.0])
_node = st.integers(min_value=0, max_value=N_ROUTERS - 1)
_edge = st.tuples(_node, _node, _cost).filter(lambda e: e[0] != e[1])
#: One mutation: fail / restore the i-th link (modulo), or add a link.
_mutation = st.one_of(
    st.tuples(st.sampled_from(["fail", "restore"]),
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("add"), _edge))


def _random_network(edges):
    """Routers r0..r5 split over two domains; every router is a border
    so any pair may be linked (cross-domain pairs become inter-domain
    links, which ``intra_domain_only`` must not cross)."""
    net = Network()
    for asn in (1, 2):
        net.add_domain(Domain(asn=asn, name=f"d{asn}",
                              prefix=Prefix.parse(f"10.{asn}.0.0/16")))
    for i in range(N_ROUTERS):
        net.add_router(f"r{i}", 1 + i % 2, is_border=True)
    net.domains[1].set_relationship(2, Relationship.PEER)
    net.domains[2].set_relationship(1, Relationship.PEER)
    for edge in edges:
        _add_link(net, edge)
    return net


def _add_link(net, edge):
    a, b, cost = edge
    if net.link_between(f"r{a}", f"r{b}") is None:
        net.add_link(f"r{a}", f"r{b}", cost=cost)


def _assert_cache_agrees_with_oracle(net):
    ids = sorted(net.nodes)
    for src in ids:
        for dst in ids:
            for intra in (False, True):
                assert net.shortest_path(src, dst, intra) == \
                    early_exit_dijkstra(net, src, dst, intra), \
                    (src, dst, intra)


@given(edges=st.lists(_edge, max_size=12),
       mutations=st.lists(_mutation, max_size=8))
def test_shortest_path_equals_early_exit_dijkstra_after_every_mutation(
        edges, mutations):
    """Cost *and* node list, ties included, after every ``fail()``,
    ``restore()`` and ``add_link`` — the bit-identity the cache's
    docstring argues, checked at the cache boundary itself."""
    net = _random_network(edges)
    _assert_cache_agrees_with_oracle(net)
    for kind, arg in mutations:
        if kind == "add":
            _add_link(net, arg)
        elif net.links:
            link = net.links[sorted(net.links)[arg % len(net.links)]]
            link.fail() if kind == "fail" else link.restore()
        _assert_cache_agrees_with_oracle(net)
