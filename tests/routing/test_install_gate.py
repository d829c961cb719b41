"""Reconvergence that costs what changed, held to what a full rebuild gives.

``IgpProtocol.install_routes`` rewrites only routers whose route
generation moved, ``LinkStateRouting.refresh`` skips a scan it can prove
would schedule nothing, ``BgpProtocol`` re-derives a router's rows when
its IGP rows were rewritten, and the vN-Bone asks BGP once per adopting
AS and orders prefixes once per rebuild.  Every one of them is compared
here with its reference in ``tests/oracles.py`` after *every* install
and rebuild of a churn scenario over link-state and distance-vector
domains mixed, and with two properties no oracle states: the refresh
gate sends no message fewer or more, and a fault undone returns every
FIB to its bytes.
"""

import random

import pytest

from repro.core.evolution import EvolvableInternet
from repro.faults import FaultInjector, FaultPlan
from repro.net.address import IPv4Address
from repro.net.link import LinkScope
from repro.routing.linkstate import LinkStateRouting
from repro.topogen.hierarchy import InternetSpec, generate_internet
from repro.topogen.scale import ScaleSpec, generate_scale_internet
from repro.vnbone.egress import EgressPolicy
from repro.vnbone.mobility import MobilityService

from tests.oracles import (checked_bgp_installs, checked_igp_installs,
                           checked_vn_rebuilds, forwarding_state,
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
            checked_vn_rebuilds() as vn:
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
    assert vn["rebuilds"] > 10 and vn["members"] > 0
    assert deployment.members()


def test_paranoid_gates_rederive_what_they_skip(paranoid_caches):
    internet = mixed_internet()
    churn(internet)
    stats = [p.gate_stats() for p in internet.orchestrator.igps.values()]
    assert paranoid_caches["igp_install"] == sum(
        s["routers_skipped"] for s in stats) > 0
    assert paranoid_caches["igp_refresh"] == sum(
        s["refreshes_skipped"] for s in stats) > 0


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
            self._settled_at = (self.network.topology_version,
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
