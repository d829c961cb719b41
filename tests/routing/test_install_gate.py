"""Reconvergence that costs what changed, held to what a full rebuild gives.

``IgpProtocol.install_routes`` rewrites only routers whose route
generation moved, ``LinkStateRouting.refresh`` skips a scan it can prove
would schedule nothing, ``BgpProtocol`` rebuilds a domain when its own
egress map moved and re-derives a router's rows when its IGP rows were
rewritten, and the vN-Bone asks BGP once per adopting
AS and orders prefixes once per rebuild.  Every one of them is compared
here with its reference in ``tests/oracles.py`` after *every* install
and rebuild (and every BGP export) of a churn scenario over link-state
and distance-vector
domains mixed, and with two properties no oracle states: the refresh
gate sends no message fewer or more, and a fault undone returns every
FIB to its bytes.  The last section shows which domains each kind of
change makes BGP rebuild.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

from repro.core.evolution import EvolvableInternet
from repro.core.orchestrator import Orchestrator
from repro.faults import FaultInjector, FaultPlan
from repro.net import Domain, Network, Prefix, Relationship
from repro.net.address import IPv4Address
from repro.net.link import LinkScope
from repro.net.node import Fib, RouteSource
from repro.routing.linkstate import LinkStateRouting
from repro.topogen.hierarchy import InternetSpec, generate_internet
from repro.topogen.scale import ScaleSpec, generate_scale_internet
from repro.vnbone.egress import EgressPolicy
from repro.vnbone.mobility import MobilityService

from tests.oracles import (checked_bgp_exports, checked_bgp_installs,
                           checked_igp_installs, checked_vn_rebuilds,
                           forwarding_state, installed_bgp_rows,
                           refresh_gate_open)

SEED = 11
SPEC = InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=SEED)


def mixed_internet(seed=SEED):
    """A generated internet whose every other domain runs
    distance-vector (the anchor tier-1 stays link-state)."""
    generated = generate_internet(SPEC)
    asns = sorted(generated.network.domains)
    overrides = {asn: "distancevector" for asn in asns[1::2]}
    return EvolvableInternet(generated.network, seed=seed,
                             igp_overrides=overrides, generated=generated)


def fault_plan(internet, deployment, seed):
    """Seeded: an intra-domain flip under each IGP kind, an inter-domain
    flip, and a member crash/recover, one epoch apart."""
    rng = random.Random(seed)
    network, orch = internet.network, internet.orchestrator
    routers = {node_id for node_id, node in network.nodes.items()
               if node.is_router}
    links = sorted(key for key in network.links if set(key) <= routers)

    def intra(kind):
        return [key for key in links
                if network.links[key].scope is LinkScope.INTRA_DOMAIN
                and isinstance(orch.igp(network.node(key[0]).domain_id),
                               LinkStateRouting) == (kind == "ls")]

    inter = [key for key in links
             if network.links[key].scope is LinkScope.INTER_DOMAIN]
    plan = FaultPlan()
    at = 10.0
    for pool in (intra("ls"), intra("dv"), inter):
        a, b = rng.choice(pool)
        plan.link_down(a, b, at=at).link_up(a, b, at=at + 40.0)
        at += 80.0
    victim = rng.choice(sorted(deployment.members()))
    plan.crash_node(victim, at=at).recover_node(victim, at=at + 40.0)
    return plan


def churn(internet, egress_policy=EgressPolicy.BGP_INFORMED, seed=SEED):
    """Rollout, fault plan, undeploy, host move: every way this repo has
    of making the control planes reconverge.  Returns the deployment."""
    network = internet.network
    anchor = internet.tier1_asns()[0]
    deployment = internet.new_deployment(
        version=8, scheme="default", default_asn=anchor,
        egress_policy=egress_policy)
    deployment.deploy(anchor)
    deployment.rebuild()
    others = [asn for asn in sorted(network.domains) if asn != anchor]
    for step, asn in enumerate(others[:4]):
        routers = sorted(network.domains[asn].routers)
        # Odd steps adopt on one router only (assumption A1).
        deployment.deploy(asn, router_ids=set(routers[:1]) if step % 2
                          else None)
        deployment.rebuild()
    hosts = internet.hosts()
    if egress_policy is EgressPolicy.HOST_ADVERTISED:
        for host_id in hosts[:3]:
            deployment.register_host(host_id)
        deployment.rebuild()
    pairs = internet.host_pairs(sample=12, seed=seed)

    def workload():
        return internet.reachability(8, sample=12, seed=seed)

    FaultInjector(internet.orchestrator, fault_plan(internet, deployment, seed),
                  deployments=[deployment]).play(workload)
    for asn in others[:2]:  # one distance-vector domain, one link-state
        deployment.undeploy(asn)
        deployment.rebuild()
    mobility = MobilityService(deployment)
    mobile = hosts[-1]
    mobility.enable(mobile)
    home = network.node(mobile).domain_id
    target = next(asn for asn in internet.stub_asns() if asn != home)
    mobility.move(mobile, target, sorted(network.domains[target].routers)[0])
    for src, dst in pairs:
        deployment.send(src, dst)
    return deployment


# -- per-install oracles --------------------------------------------------------
@pytest.mark.parametrize("egress_policy", [EgressPolicy.BGP_INFORMED,
                                           EgressPolicy.PROXY,
                                           EgressPolicy.HOST_ADVERTISED],
                         ids=lambda policy: policy.value)
def test_every_install_and_rebuild_equals_its_reference(egress_policy):
    with checked_igp_installs() as igp, checked_bgp_installs() as bgp, \
            checked_bgp_exports() as exports, checked_vn_rebuilds() as vn:
        internet = mixed_internet()
        kinds = {type(p).__name__ for p in internet.orchestrator.igps.values()}
        assert kinds == {"LinkStateRouting", "DistanceVectorRouting"}
        deployment = churn(internet, egress_policy)
    stats = [p.gate_stats() for p in internet.orchestrator.igps.values()]
    # Not vacuous: routers were checked, and most of them were skipped.
    assert igp["routers"] == sum(s["routers_written"] + s["routers_skipped"]
                                 for s in stats) > 0
    assert (sum(s["routers_skipped"] for s in stats)
            > sum(s["routers_written"] for s in stats) > 0)
    assert sum(s["refreshes_skipped"] for s in stats) > 0
    assert len(bgp) > 10
    assert exports["exports"] > 0
    assert exports["updates"] == internet.orchestrator.bgp.stats.sent
    assert vn["rebuilds"] > 10 and vn["members"] > 0
    assert deployment.members()


def test_paranoid_gates_rederive_what_they_skip(paranoid_caches):
    internet = mixed_internet()
    deployment = churn(internet)
    stats = [p.gate_stats() for p in internet.orchestrator.igps.values()]
    assert paranoid_caches["igp_install"] == sum(
        s["routers_skipped"] for s in stats) > 0
    assert paranoid_caches["igp_refresh"] == sum(
        s["refreshes_skipped"] for s in stats) > 0
    assert paranoid_caches["vn_fib"] == (
        paranoid_caches["vn_rows"]
        - deployment.routing.gate_stats()["rows_visited"]) > 0


# -- message neutrality -----------------------------------------------------------
def _totals(internet):
    orch = internet.orchestrator
    return orch.message_totals(), orch.scheduler.events_processed, orch.scheduler.now


def test_refresh_gate_moves_no_message():
    gated = mixed_internet()
    churn(gated)
    assert sum(p.refreshes_skipped for p in gated.orchestrator.igps.values()) > 0
    with refresh_gate_open():
        scanned = mixed_internet()
        churn(scanned)
    assert sum(p.refreshes_skipped
               for p in scanned.orchestrator.igps.values()) == 0
    assert _totals(gated) == _totals(scanned)


def test_a_scan_that_scheduled_proves_nothing(monkeypatch):
    """The neutrality test bites: a gate that also trusts a scan which
    scheduled an origination drops the re-originations the back-to-back
    ``refresh()`` calls of one ``deploy()`` make today."""
    plain = mixed_internet()
    churn(plain)
    refresh = LinkStateRouting.refresh

    def trusts_every_scan(self):
        refresh(self)
        if self._started:
            self._settled_at = (
                self.network.domain_version(self.domain.asn),
                self._advert_gen)

    monkeypatch.setattr(LinkStateRouting, "refresh", trusts_every_scan)
    broken = mixed_internet()
    churn(broken)
    assert _totals(broken) != _totals(plain)


# -- a fault undone leaves no trace -----------------------------------------------
@pytest.fixture(scope="module")
def scale_world():
    generated = generate_scale_internet(ScaleSpec(
        n_transit=4, n_stub=6, routers_transit=3, routers_stub=2, seed=SEED))
    internet = EvolvableInternet(generated.network, seed=SEED)
    deployment = internet.new_deployment(version=8, scheme="global")
    for asn in generated.transit[:3]:
        deployment.deploy(asn)
    deployment.rebuild()
    return internet, deployment


def test_fail_then_restore_returns_every_fib_to_its_bytes(scale_world):
    internet, deployment = scale_world
    network, orch = internet.network, internet.orchestrator
    baseline = forwarding_state(network, deployment)
    moved = 0
    with checked_bgp_installs() as installs:
        for key in sorted(network.links):
            link = network.links[key]
            link.fail()
            orch.notify_link_change(link)
            deployment.rebuild()
            moved += forwarding_state(network, deployment) != baseline
            link.restore()
            orch.notify_link_change(link)
            deployment.rebuild()
            assert forwarding_state(network, deployment) == baseline, key
    assert moved > len(network.links) // 2
    assert len(installs) >= 2 * len(network.links)


def test_crash_then_recover_returns_every_fib_to_its_bytes(scale_world):
    internet, deployment = scale_world
    network, orch = internet.network, internet.orchestrator
    baseline = forwarding_state(network, deployment)
    victim = sorted(deployment.members())[1]
    failed = network.crash_node(victim)
    for link in failed:
        orch.notify_link_change(link)
    orch.notify_node_change(victim)
    deployment.rebuild()
    assert forwarding_state(network, deployment) != baseline
    for link in network.recover_node(victim, failed):
        orch.notify_link_change(link)
    orch.notify_node_change(victim)
    deployment.rebuild()
    assert forwarding_state(network, deployment) == baseline


# -- BGP rebuilds the domains whose egress map moved -------------------------------
def gate_world():
    """Three speakers, converged; every AS is a full mesh inside::

        AS1: a1 a2 a3     a1 === b1 and a3 === b3: two parallel links (peers)
        AS2: b1 b2 b3     b2 === c1: AS3 is AS2's customer
        AS3: c1 c2

    ``a2`` and ``c2`` have no inter-domain link."""
    net = Network()
    for asn, name, size in ((1, "a", 3), (2, "b", 3), (3, "c", 2)):
        net.add_domain(Domain(asn=asn, name=name.upper(),
                              prefix=Prefix.parse(f"10.{asn}.0.0/16")))
        routers = [f"{name}{index}" for index in range(1, size + 1)]
        for router_id in routers:
            net.add_router(router_id, asn, is_border=True)
        for a, b in itertools.combinations(routers, 2):
            net.add_link(a, b)
    net.connect_domains(1, 2, "a1", "b1", Relationship.PEER)
    net.connect_domains(1, 2, "a3", "b3", Relationship.PEER)
    net.connect_domains(3, 2, "c1", "b2", Relationship.PROVIDER)
    orch = Orchestrator(net, seed=SEED)
    orch.converge()
    return orch


@contextmanager
def rebuilt_domains(orch):
    """The ASNs with a router whose ``withdraw_all(RouteSource.BGP)``
    ran inside the block: rebuilt whole, or re-derived router by
    router (``domains_rebuilt`` tells the two apart)."""
    withdraw_all = Fib.withdraw_all
    asn_of = {id(node.fib4): node.domain_id
              for node in orch.network.nodes.values()}
    rebuilt = set()

    def spy(self, source):
        if source is RouteSource.BGP:
            rebuilt.add(asn_of[id(self)])
        return withdraw_all(self, source)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fib, "withdraw_all", spy)
        yield rebuilt


def flip(orch, a, b):
    link = orch.network.link_between(a, b)
    if link.up:
        link.fail()
    else:
        link.restore()
    orch.notify_link_change(link)
    orch.reconverge()


def crash(orch, node_id):
    failed = orch.network.crash_node(node_id)
    for link in failed:
        orch.notify_link_change(link)
    orch.notify_node_change(node_id)
    orch.reconverge()
    return failed


def recover(orch, node_id, failed):
    for link in orch.network.recover_node(node_id, failed):
        orch.notify_link_change(link)
    orch.notify_node_change(node_id)
    orch.reconverge()


def domains_rebuilt(orch):
    return orch.bgp.gate_stats()["domains_rebuilt"]


def test_an_intra_domain_flip_rebuilds_no_domain():
    with checked_bgp_installs() as installs:
        orch = gate_world()
        assert domains_rebuilt(orch) == 3
        baseline = installed_bgp_rows(orch.network)
        with rebuilt_domains(orch) as rebuilt:
            flip(orch, "a1", "a2")
            flip(orch, "a1", "a2")
    assert len(installs) == 3
    assert domains_rebuilt(orch) == 3
    # AS1's routers were re-derived one by one (their IGP rows were
    # rewritten); no router outside AS1 was touched.
    assert rebuilt == {1}
    assert installed_bgp_rows(orch.network) == baseline


def test_an_inter_domain_flip_rebuilds_its_two_endpoint_domains():
    with checked_bgp_installs():
        orch = gate_world()
        baseline = installed_bgp_rows(orch.network)
        with rebuilt_domains(orch) as rebuilt:
            flip(orch, "b2", "c1")
            assert domains_rebuilt(orch) == 3 + 2
            # AS1 lost its route to AS3: a Loc-RIB delta, patched in.
            assert installed_bgp_rows(orch.network)["a2"] != baseline["a2"]
            flip(orch, "b2", "c1")
    assert rebuilt == {2, 3}
    assert domains_rebuilt(orch) == 3 + 4
    assert installed_bgp_rows(orch.network) == baseline


def test_one_of_two_parallel_links_rebuilds_both_domains():
    """The peer set does not move, no session goes down, no message is
    sent, no IGP row changes — only a link pair, and ``a3``'s rows with
    it."""
    with checked_bgp_installs():
        orch = gate_world()
        bgp, domain = orch.bgp, orch.network.domains[1]
        baseline = installed_bgp_rows(orch.network)
        assert ("10.2.0.0/16", "BGP", "b3", 0.0) in baseline["a3"]
        sent = bgp.stats.sent
        with rebuilt_domains(orch) as rebuilt:
            flip(orch, "a3", "b3")
            assert bgp._session_peers(domain) == [2]
            assert bgp.stats.sent == sent
            assert (("10.2.0.0/16", "BGP", "a1", 1.0)
                    in installed_bgp_rows(orch.network)["a3"])
            assert domains_rebuilt(orch) == 3 + 2
            flip(orch, "a3", "b3")
    assert rebuilt == {1, 2}
    assert installed_bgp_rows(orch.network) == baseline


def test_a_border_crash_shrinks_the_egress_map_an_inner_crash_does_not():
    with checked_bgp_installs():
        orch = gate_world()
        baseline = installed_bgp_rows(orch.network)
        with rebuilt_domains(orch) as rebuilt:
            failed = crash(orch, "a2")
            # Its rows follow its emptied IGP view (``igp_generation``).
            assert installed_bgp_rows(orch.network)["a2"] == []
            recover(orch, "a2", failed)
        assert rebuilt == {1}
        assert domains_rebuilt(orch) == 3
        assert installed_bgp_rows(orch.network) == baseline
        with rebuilt_domains(orch) as rebuilt:
            failed = crash(orch, "c1")  # c2 keeps AS3's speaker up
            assert domains_rebuilt(orch) == 3 + 2
            recover(orch, "c1", failed)
        assert rebuilt == {2, 3}
        assert installed_bgp_rows(orch.network) == baseline


def test_connect_domains_mid_run_grows_the_egress_map():
    with checked_bgp_installs():
        orch = gate_world()
        with rebuilt_domains(orch) as rebuilt:
            orch.network.connect_domains(1, 3, "a2", "c2", Relationship.PEER)
            orch.bgp.reannounce(1)
            orch.bgp.reannounce(3)
            orch.reconverge()
    assert rebuilt == {1, 3}
    assert domains_rebuilt(orch) == 3 + 2
    assert (("10.1.0.0/16", "BGP", "a2", 0.0)
            in installed_bgp_rows(orch.network)["c2"])


# -- small fixes ---------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["linkstate", "distancevector"])
def test_redundant_anycast_withdraw_schedules_nothing(kind):
    internet = EvolvableInternet.generate(SPEC, seed=SEED, igp_kind=kind)
    orch = internet.orchestrator
    asn = internet.tier1_asns()[0]
    igp = orch.igp(asn)
    router = sorted(internet.network.domains[asn].routers)[0]
    address = IPv4Address.parse("240.0.0.1")
    assert len(orch.scheduler) == 0
    igp.withdraw_anycast(router, address)  # never advertised
    assert len(orch.scheduler) == 0
    igp.advertise_anycast(router, address)
    assert len(orch.scheduler) > 0
