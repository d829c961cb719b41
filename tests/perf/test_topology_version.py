"""Topology-version counter: every topology mutation must bump it.

The version is the single invalidation signal for every path cache, so
these tests pin down exactly which operations move it — and, just as
importantly, that no-op transitions (failing an already-down link) do
not churn it.
"""

from tests.conftest import build_two_domain_network


def test_add_link_bumps_version():
    net = build_two_domain_network()
    before = net.topology_version
    net.add_router("r1c", 1)
    assert net.topology_version == before  # a linkless node changes no path
    net.add_link("r1b", "r1c")
    assert net.topology_version == before + 1


def test_link_fail_and_restore_bump_version():
    net = build_two_domain_network()
    link = net.link_between("r1a", "r1b")
    before = net.topology_version
    link.fail()
    assert net.topology_version == before + 1
    link.restore()
    assert net.topology_version == before + 2


def test_noop_link_transitions_do_not_bump():
    net = build_two_domain_network()
    link = net.link_between("r1a", "r1b")
    link.fail()
    before = net.topology_version
    link.fail()  # already down
    assert net.topology_version == before
    link.restore()
    after_restore = net.topology_version
    assert after_restore == before + 1
    link.restore()  # already up
    assert net.topology_version == after_restore


def test_crash_and_recover_bump_version():
    net = build_two_domain_network()
    before = net.topology_version
    net.crash_node("r1a")
    mid = net.topology_version
    assert mid > before
    net.recover_node("r1a")
    assert net.topology_version > mid
    # Liveness alone moves it: with every link already down (adjacency
    # lost first) or left down, no link hook fires for the node.
    for link in net.node("r1a").links:
        link.fail()
    before = net.topology_version
    net.crash_node("r1a")
    mid = net.topology_version
    assert mid > before
    net.recover_node("r1a", links=[])
    assert net.topology_version > mid


def test_move_host_bumps_version():
    net = build_two_domain_network()
    before = net.topology_version
    net.move_host("h1", 2, "r2a")
    assert net.topology_version > before
