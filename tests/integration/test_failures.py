"""Failure-injection integration tests: routers and links dying under a
live IPvN deployment, and the control planes healing around them."""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.topogen import InternetSpec


@pytest.fixture
def internet():
    spec = InternetSpec(n_tier1=3, n_tier2=4, n_stub=8, hosts_per_stub=1,
                        routers_tier1=5, seed=47)
    return EvolvableInternet.generate(spec, seed=47)


def deploy_ipv8(internet, extra=2):
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    for asn in internet.stub_asns()[:extra]:
        deployment.deploy(asn)
    deployment.rebuild()
    return deployment


class TestAnycastMemberFailure:
    def test_probes_shift_to_surviving_members(self, internet):
        deployment = deploy_ipv8(internet)
        scheme = deployment.scheme
        host = internet.hosts()[0]
        first = scheme.resolve(host)
        assert first is not None
        internet.network.crash_node(first)
        deployment.rebuild()
        second = scheme.resolve(host)
        assert second is not None
        assert second != first

    def test_reachability_survives_one_member_failure(self, internet):
        deployment = deploy_ipv8(internet)
        victim = sorted(deployment.members())[0]
        internet.network.crash_node(victim)
        deployment.rebuild()
        report = internet.reachability(8, sample=20)
        assert report.delivery_ratio == 1.0, report.failures

    def test_restore_heals(self, internet):
        deployment = deploy_ipv8(internet)
        host = internet.hosts()[0]
        victim = deployment.scheme.resolve(host)
        internet.network.crash_node(victim)
        deployment.rebuild()
        internet.network.recover_node(victim)
        deployment.rebuild()
        assert deployment.scheme.resolve(host) == victim


class TestVnBoneFailure:
    def test_tunnels_avoid_dead_members(self, internet):
        deployment = deploy_ipv8(internet)
        victim = sorted(deployment.members())[0]
        internet.network.crash_node(victim)
        deployment.rebuild()
        for tunnel in deployment.tunnels:
            assert victim not in (tunnel.a, tunnel.b)

    def test_vn_routes_skip_dead_members(self, internet):
        deployment = deploy_ipv8(internet)
        members = sorted(deployment.members())
        victim = members[0]
        survivor = members[-1]
        internet.network.crash_node(victim)
        deployment.rebuild()
        assert victim not in deployment.routing.reachable_members(survivor)


class TestLinkFlapping:
    def test_repeated_fail_restore_cycles_stay_consistent(self, internet):
        deployment = deploy_ipv8(internet)
        baseline = internet.reachability(8, sample=15).delivery_ratio
        assert baseline == 1.0
        # Flap one *redundant* intra-domain tier-1 link three times
        # (failing a cut link would legitimately partition the domain).
        tier1 = internet.tier1_asns()[0]
        routers = sorted(internet.network.domains[tier1].routers)
        link = None
        for candidate in internet.network.links.values():
            if candidate.a in routers and candidate.b in routers:
                candidate.fail()
                still_connected = internet.network.shortest_path(
                    candidate.a, candidate.b,
                    intra_domain_only=True) is not None
                candidate.restore()
                if still_connected:
                    link = candidate
                    break
        assert link is not None, "topology has no redundant tier-1 link"
        for _ in range(3):
            link.fail()
            deployment.rebuild()
            assert internet.reachability(8, sample=10).delivery_ratio == 1.0
            link.restore()
            deployment.rebuild()
            assert internet.reachability(8, sample=10).delivery_ratio == 1.0
