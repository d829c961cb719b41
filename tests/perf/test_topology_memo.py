"""``TopologyMemo``: the one freshness rule, held for every memo.

A memoized answer is valid while ``Network.topology_version`` holds.
Every transition that moves the version makes the next ``get`` a miss
whose value equals a fresh ``compute``; a transition that moves nothing
(failing a link that is already down) leaves the next ``get`` a hit.
What each memo computes is tested beside its class.
"""

import pytest

from repro.bgp.egress import EgressCache
from repro.measure import DelayOracle
from repro.perf.cache import TopologyMemo

from tests.conftest import build_two_domain_network

#: (how to get the memo for a network, a key whose answer crosses the
#: r1b === r2b peering link).
MEMOS = {
    "path": (lambda net: net.path_cache, ("h1", False, None)),
    "egress": (EgressCache, (1, 2)),
    "delay": (DelayOracle, ("h1", frozenset({"r2a", "r2b"}))),
    "delay_tree": (lambda net: DelayOracle(net).trees, "h1"),
}

PEERING = ("r1b", "r2b")


def _fail(net):
    net.link_between(*PEERING).fail()


def _restore(net):
    net.link_between(*PEERING).restore()


def _add_link(net):
    net.add_link("r1a", "r2a")  # both are borders of peering domains


def _crash_node(net):
    net.crash_node("r2b")


#: name -> (state to set up before the memo is primed, the transition).
TRANSITIONS = {
    "fail": (None, _fail),
    "restore": (_fail, _restore),
    "add_link": (None, _add_link),
    "crash_node": (None, _crash_node),
}


def _primed(memo_name, before=None):
    net = build_two_domain_network()
    for node_id in ("r1a", "r2a"):  # so _add_link may join them
        net.nodes[node_id].is_border = True
        net.domain_of(node_id).border_routers.add(node_id)
    if before is not None:
        before(net)
    make, key = MEMOS[memo_name]
    memo = make(net)
    assert isinstance(memo, TopologyMemo)
    first = memo.get(key)
    assert memo.get(key) is first
    assert (memo.hits, memo.misses, memo.invalidations) == (1, 1, 0)
    return net, memo, key, first


@pytest.mark.parametrize("transition", TRANSITIONS)
@pytest.mark.parametrize("memo_name", MEMOS)
def test_version_move_makes_the_next_get_a_fresh_miss(memo_name, transition):
    before, move = TRANSITIONS[transition]
    net, memo, key, stale = _primed(memo_name, before)
    move(net)
    value = memo.get(key)
    assert (memo.hits, memo.misses, memo.invalidations) == (1, 2, 1)
    assert value == memo.compute(key)
    assert value != stale  # every transition here changes the answer
    assert len(memo) == memo.stats()["entries"] == 1


@pytest.mark.parametrize("memo_name", MEMOS)
def test_noop_transition_is_still_a_hit(memo_name):
    net, memo, key, first = _primed(memo_name, before=_fail)
    _fail(net)  # already down: the version does not move
    assert memo.get(key) is first
    assert (memo.hits, memo.misses, memo.invalidations) == (2, 1, 0)
