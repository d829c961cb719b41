"""``DelayOracle.best_replica``: an early-exit search, exact to the bit.

The oracle stops its delay Dijkstra at the nearest live replica instead
of building the vantage's whole delay tree.  Until it stops it runs the
tree's relaxations in the tree's order, so its answer must equal
``tests/oracles.py::reference_best_replica`` — the full tree, then the
sorted-replica scan — with float ``==``, ties and zero-delay links
included.  ``delay_tree`` is the same search run to the end, so it must
equal ``reference_delay_tree``, a separate Dijkstra over
``Network.neighbors`` lists.
"""

from hypothesis import given, settings, strategies as st

from repro.measure import DelayOracle, delay_tree
from repro.net import Domain, Network, Prefix, Relationship

from tests.oracles import reference_best_replica, reference_delay_tree

N_ROUTERS = 7
#: Zero delays settle equal-delay replicas late; 0.1 + 0.2 != 0.3 makes
#: near-ties whose float bits depend on summation order.
_delay = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0])
_node = st.integers(min_value=0, max_value=N_ROUTERS - 1)
_edge = st.tuples(_node, _node, _delay).filter(lambda e: e[0] != e[1])


def _network(edges):
    """Routers r0..r6 over two peering domains, every router a border."""
    net = Network()
    for asn in (1, 2):
        net.add_domain(Domain(asn=asn, name=f"d{asn}",
                              prefix=Prefix.parse(f"10.{asn}.0.0/16")))
    for i in range(N_ROUTERS):
        net.add_router(f"r{i}", 1 + i % 2, is_border=True)
    net.domains[1].set_relationship(2, Relationship.PEER)
    net.domains[2].set_relationship(1, Relationship.PEER)
    for a, b, delay in edges:
        if net.link_between(f"r{a}", f"r{b}") is None:
            net.add_link(f"r{a}", f"r{b}", delay=delay)
    return net


_edges = st.lists(_edge, max_size=16)
_down = st.lists(st.integers(min_value=0, max_value=40), max_size=4)
_crashed = st.sets(_node, max_size=2)


def _damaged(edges, down, crashed):
    """:func:`_network` with the *down* links failed and the *crashed*
    routers crashed."""
    net = _network(edges)
    keys = sorted(net.links)
    for index in down:
        if keys:
            net.links[keys[index % len(keys)]].fail()
    for index in crashed:
        net.crash_node(f"r{index}")
    return net


@settings(max_examples=300, deadline=None)
@given(edges=_edges, down=_down, crashed=_crashed)
def test_delay_tree_equals_the_neighbor_list_dijkstra(edges, down, crashed):
    """The tree is the nearest-replica search run to the end; from every
    vantage it equals the reference Dijkstra over ``Network.neighbors``,
    float for float."""
    net = _damaged(edges, down, crashed)
    for src in sorted(net.nodes):
        assert delay_tree(net, src) == reference_delay_tree(net, src), src


@settings(max_examples=300, deadline=None)
@given(edges=_edges, down=_down, crashed=_crashed,
       replicas=st.sets(_node, max_size=N_ROUTERS))
def test_best_replica_equals_the_full_tree_scan(edges, down, crashed,
                                                 replicas):
    """Every vantage — crashed, itself a replica, or neither — against a
    replica set that may hold crashed members, over down links."""
    net = _damaged(edges, down, crashed)
    replica_ids = {f"r{i}" for i in replicas}
    oracle = DelayOracle(net)
    for src in sorted(net.nodes):
        expected = reference_best_replica(net, src, replica_ids)
        assert oracle.best_replica(src, replica_ids) == expected, src
        # A memo hit, and the input order does not matter.
        hits = oracle.hits
        assert oracle.best_replica(
            src, sorted(replica_ids, reverse=True)) == expected, src
        assert oracle.hits == hits + 1


def _line(*delays, names=None):
    """r0 -delays[0]- r1 -delays[1]- r2 ... in one domain (or *names*
    along the line instead)."""
    names = names or [f"r{i}" for i in range(len(delays) + 1)]
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    for name in names:
        net.add_router(name, 1)
    for a, b, delay in zip(names, names[1:], delays):
        net.add_link(a, b, delay=delay)
    return net


def test_a_zero_delay_link_settles_a_smaller_id_later():
    # r0 -1.0- r2 -0.0- r1: replica "r2" is popped first at 1.0, and
    # only relaxing it reaches "r1" at the same delay.  The search must
    # keep popping at 1.0, and the smaller id wins.
    net = _line(1.0, 0.0, names=("r0", "r2", "r1"))
    oracle = DelayOracle(net)
    assert oracle.best_replica("r0", ["r2", "r1"]) == ("r1", 1.0)
    assert reference_best_replica(net, "r0", ["r1", "r2"]) == ("r1", 1.0)


def test_vantage_that_is_a_replica_is_its_own_answer():
    net = _line(0.0, 2.0)
    oracle = DelayOracle(net)
    assert oracle.best_replica("r1", ["r1", "r2"]) == ("r1", 0.0)
    # A smaller id at zero delay still wins the tie.
    assert oracle.best_replica("r1", ["r0", "r1"]) == ("r0", 0.0)


def test_crashed_vantage_and_crashed_replica():
    net = _line(1.0, 1.0)
    net.crash_node("r1")
    oracle = DelayOracle(net)
    assert oracle.best_replica("r1", ["r0", "r2"]) is None
    assert oracle.best_replica("r0", ["r1", "r2"]) is None
    assert oracle.best_replica("r0", ["r0", "r1"]) == ("r0", 0.0)
    assert oracle.best_replica("r0", []) is None


def test_the_search_builds_no_neighbor_list(monkeypatch):
    net = _line(1.0, 2.0, 3.0)

    def no_lists(*args, **kwargs):
        raise AssertionError("Network.neighbors called")

    monkeypatch.setattr(Network, "neighbors", no_lists)
    assert DelayOracle(net).best_replica("r0", ["r3"]) == ("r3", 6.0)
    assert delay_tree(net, "r0") == {"r0": 0.0, "r1": 1.0, "r2": 3.0,
                                     "r3": 6.0}


def test_trees_stay_trees():
    """``delay()`` reads the full tree; a nearest-replica search counts
    as neither a tree hit nor a tree miss."""
    net = _line(1.0, 2.0)
    oracle = DelayOracle(net)
    oracle.best_replica("r0", ["r2"])
    assert oracle.trees.stats()["misses"] == 0
    assert (oracle.hits, oracle.misses) == (0, 1)
    assert oracle.delay("r0", "r2") == 3.0
    assert oracle.delay("r0", "r1") == 1.0
    assert (oracle.trees.hits, oracle.trees.misses) == (1, 1)
