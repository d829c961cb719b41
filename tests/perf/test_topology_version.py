"""Topology-version counter: every topology mutation must bump it.

The version is the single invalidation signal for every path cache, so
these tests pin down exactly which operations move it — and, just as
importantly, that no-op transitions (failing an already-down link) do
not churn it.  Each mutation also moves ``Network.domain_version`` of
exactly the domains it touches (the scope the link-state refresh gate
reads), and never without the global counter.
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


# -- the domain scope ----------------------------------------------------------
def _versions(net):
    """(global version, {asn: domain version})."""
    return (net.topology_version,
            {asn: net.domain_version(asn) for asn in net.domains})


def _moved(net, before):
    """Whether the global version moved, and which domains moved."""
    (glob, domains), (glob0, domains0) = _versions(net), before
    assert glob >= glob0 and all(domains[a] >= domains0[a] for a in domains)
    return glob > glob0, {asn for asn in domains if domains[asn] > domains0[asn]}


def test_intra_domain_flip_bumps_that_domain_only():
    net = build_two_domain_network()
    link = net.link_between("r1a", "r1b")
    before = _versions(net)
    link.fail()
    assert _moved(net, before) == (True, {1})
    before = _versions(net)
    link.restore()
    assert _moved(net, before) == (True, {1})


def test_inter_domain_flip_bumps_both_endpoint_domains():
    net = build_two_domain_network()
    link = net.link_between("r1b", "r2b")
    before = _versions(net)
    link.fail()
    assert _moved(net, before) == (True, {1, 2})
    before = _versions(net)
    net.add_router("r2c", 2)
    net.add_link("r2b", "r2c")
    assert _moved(net, before) == (True, {2})


def test_crash_and_recover_bump_the_nodes_domain():
    net = build_two_domain_network()
    before = _versions(net)
    net.crash_node("r2a")  # its links are intra-domain: AS2 only
    assert _moved(net, before) == (True, {2})
    before = _versions(net)
    net.recover_node("r2a", links=[])  # liveness alone
    assert _moved(net, before) == (True, {2})


def test_move_host_bumps_the_old_and_the_new_domain():
    net = build_two_domain_network()
    before = _versions(net)
    net.move_host("h1", 2, "r2a")
    assert _moved(net, before) == (True, {1, 2})
    before = _versions(net)
    net.move_host("h1", 2, "r2b")  # within AS2
    assert _moved(net, before) == (True, {2})
