"""SPF reuse: the IGP install gate and the vN-Bone signature cache.

``IgpProtocol.install_routes`` runs SPF for, and rewrites, only the
routers whose route generation (under link-state: the LSDB generation)
moved since their last install.  A converged domain must reinstall
without running Dijkstra, and an event inside one domain must not
dirty a router of another ("exactly the affected entries").

``VnRouting.compute`` re-selects, in a ``VnFib`` it last wrote, only
the prefixes whose candidates changed and those of the owners whose
distance or first hop moved; it writes only the rows that differ and
removes the rows of prefixes gone or left with no winner.  The last
tests hold the halves: a view that moves over an unchanged tunnel
graph must be written, a prefix that loses every owner must leave
every FIB, and an owner that moves only its first hop must be
re-selected.
"""

import pytest

from repro.anycast import DefaultRootedAnycast
from repro.core.evolution import EvolvableInternet
from repro.core.orchestrator import Orchestrator
from repro.obs import Observability, observing
from repro.topogen.hierarchy import InternetSpec
from repro.vnbone.deployment import VnDeployment
from repro.vnbone.egress import EgressPolicy
from repro.vnbone.state import vn_prefix_for_ipv4

from tests.conftest import build_two_domain_network
from tests.oracles import checked_vn_rebuilds


def converged(seed=1):
    obs = Observability()
    with observing(obs):
        net = build_two_domain_network()
        orch = Orchestrator(net, seed=seed)
        orch.converge()
    return net, orch, obs


def counters(obs):
    return dict(obs.metrics_summary()["counters"])


def test_repeated_installs_run_no_spf():
    net, orch, obs = converged()
    before = counters(obs)
    written = {asn: igp.routers_written for asn, igp in orch.igps.items()}
    fibs = {node_id: node.fib4.snapshot() for node_id, node in net.nodes.items()}
    orch.install_routes()
    after = counters(obs)
    # Convergence already installed every router; nothing moved since.
    assert after["igp.ls.spf_runs"] == before["igp.ls.spf_runs"]
    assert {asn: igp.routers_written
            for asn, igp in orch.igps.items()} == written
    assert (after["igp.install.routers_skipped"]
            == before.get("igp.install.routers_skipped", 0)
            + sum(len(d.routers) for d in net.domains.values()))
    assert {node_id: node.fib4.snapshot()
            for node_id, node in net.nodes.items()} == fibs


def test_link_event_invalidates_only_the_affected_domain():
    net, orch, obs = converged()
    igp1, igp2 = orch.igp(1), orch.igp(2)
    gens1_before = dict(igp1._route_gen)
    gens2_before = dict(igp2._route_gen)
    written1, written2 = igp1.routers_written, igp2.routers_written
    before = counters(obs)

    link = net.link_between("r1a", "r1b")
    link.fail()
    orch.notify_link_change(link)
    orch.reconverge()

    # The event re-originated LSAs inside AS1 ...
    assert igp1._route_gen != gens1_before
    assert igp1.routers_written > written1
    # ... but AS2's LSDBs — and therefore its install gate — did not move.
    assert igp2._route_gen == gens2_before
    assert igp2.routers_written == written2
    after = counters(obs)
    assert (after["igp.ls.spf_runs"] - before["igp.ls.spf_runs"]
            == igp1.routers_written - written1)
    assert igp2.igp_distance("r2a", "r2b") == 1.0


def test_recomputed_distances_reflect_the_new_topology():
    net, orch, obs = converged()
    igp1 = orch.igp(1)
    assert igp1.igp_distance("r1a", "r1b") == 1.0
    link = net.link_between("r1a", "r1b")
    link.fail()
    orch.notify_link_change(link)
    orch.reconverge()
    # r1a and r1b are now partitioned inside AS1.
    assert igp1.igp_distance("r1a", "r1b") is None
    link.restore()
    orch.notify_link_change(link)
    orch.reconverge()
    assert igp1.igp_distance("r1a", "r1b") == 1.0


@pytest.mark.parametrize("routing_mode", ["global-spf", "layered"])
def test_vnbone_rebuild_over_an_unchanged_tunnel_graph_is_rederived(
        routing_mode, paranoid_caches):
    """A second ``rebuild()`` at fixed membership finds the same tunnel
    graph.  The flat routing reuses its SPF sweep and skips every member,
    and under ``paranoid_caches`` each reuse is recomputed and compared;
    the layered routing memoises nothing and sweeps again.  Either way
    every rebuild equals its reference and the FIBs do not move."""
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=7), seed=7)
    adopters = [internet.tier1_asns()[0]] + internet.stub_asns()[:2]
    scheme = DefaultRootedAnycast(internet.orchestrator, "vn8",
                                  default_asn=adopters[0])
    deployment = VnDeployment(internet.orchestrator, scheme, version=8,
                              routing_mode=routing_mode)
    for asn in adopters:
        deployment.deploy(asn)
    with checked_vn_rebuilds() as vn:
        deployment.rebuild()
        fibs = {member: state.fib.entries()
                for member, state in deployment.states.items()}
        rows = paranoid_caches["vn_rows"]
        deployment.rebuild()
    assert vn["rebuilds"] == 2
    if routing_mode == "global-spf":
        assert paranoid_caches["vn_routing"] > 0
        # Same SPF rows, same view, same FIB objects: the first rebuild
        # wrote fresh FIBs in full, the second visited no row at all.
        assert paranoid_caches["vn_fib"] == \
            paranoid_caches["vn_rows"] - rows > 0
        stats = deployment.routing.gate_stats()
        assert stats["members_skipped"] == len(deployment.states)
    assert {member: state.fib.entries()
            for member, state in deployment.states.items()} == fibs


# -- what a vN-Bone rebuild writes ---------------------------------------------
def _prefixes(state):
    return {entry.prefix for entry in state.fib.entries()}


def _vn_internet(egress_policy):
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=7), seed=7)
    anchor = internet.tier1_asns()[0]
    deployment = internet.new_deployment(
        version=8, scheme="default", default_asn=anchor,
        egress_policy=egress_policy)
    deployment.deploy(anchor)
    deployment.rebuild()
    return internet, deployment


def test_owner_entries_that_move_over_an_unchanged_tunnel_graph_are_written(
        paranoid_caches):
    """``register_host`` under ``HOST_ADVERTISED`` adds an advertisement
    and no tunnel: the SPF sweep is reused, but the candidate view moved,
    so no member may be skipped — each gains the host's route."""
    internet, deployment = _vn_internet(EgressPolicy.HOST_ADVERTISED)
    adopting = deployment.adopting_asns()
    host_id = next(host for host in internet.hosts()
                   if internet.network.node(host).domain_id not in adopting)
    assert deployment.register_host(host_id) is not None
    before = deployment.routing.gate_stats()
    with checked_vn_rebuilds() as vn:
        deployment.rebuild()
    after = deployment.routing.gate_stats()
    assert paranoid_caches["vn_routing"] > 0 and vn["rebuilds"] == 1
    members = len(deployment.states)
    assert after["members_written"] - before["members_written"] == members
    assert after["members_skipped"] == before["members_skipped"]
    # One new row per member and nothing else rewritten or removed.
    assert after["rows_written"] - before["rows_written"] == members
    assert after["rows_removed"] == before["rows_removed"]
    for member, state in deployment.states.items():
        assert any(entry.origin == "host-advertised"
                   for entry in state.fib.entries()), member


def test_an_adopting_domain_s_egress_prefix_leaves_every_member(
        paranoid_caches):
    """Once an external AS adopts, its self-addressed block is routed
    natively: the ``egress-select`` row every member held for it must
    be removed, not left stale beside the rows that were rewritten."""
    internet, deployment = _vn_internet(EgressPolicy.BGP_INFORMED)
    network = internet.network
    target = next(asn for asn, domain in sorted(network.domains.items())
                  if domain.tier == 2)
    block = vn_prefix_for_ipv4(network.domains[target].prefix)
    old_members = set(deployment.states)
    assert all(block in _prefixes(deployment.states[member])
               for member in old_members)
    before = deployment.routing.gate_stats()
    with checked_vn_rebuilds() as vn:
        deployment.deploy(target)
        deployment.rebuild()
    after = deployment.routing.gate_stats()
    assert vn["rebuilds"] == 1
    for member, state in deployment.states.items():
        assert block not in _prefixes(state), member
    assert after["rows_removed"] - before["rows_removed"] >= len(old_members)
