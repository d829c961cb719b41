"""Deployment churn and concurrent-generation integration tests."""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.topogen import InternetSpec
from repro.vnbone import EgressPolicy

from tests.conftest import providers


@pytest.fixture
def internet():
    spec = InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, hosts_per_stub=1,
                        seed=21)
    return EvolvableInternet.generate(spec, seed=21)


class TestChurn:
    def test_rollback_and_redeploy_cycles(self, internet):
        deployment = internet.new_deployment(version=8, scheme="default")
        anchor = deployment.scheme.default_asn
        deployment.deploy(anchor)
        stubs = internet.stub_asns()[:3]
        for cycle in range(2):
            for asn in stubs:
                deployment.deploy(asn)
            deployment.rebuild()
            assert internet.reachability(8, sample=15).delivery_ratio == 1.0
            for asn in stubs:
                deployment.undeploy(asn)
            deployment.rebuild()
            assert internet.reachability(8, sample=15).delivery_ratio == 1.0

    def test_anycast_state_fully_cleaned_after_rollback(self, internet):
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        victim = internet.stub_asns()[0]
        deployment.deploy(victim)
        deployment.rebuild()
        deployment.undeploy(victim)
        deployment.rebuild()
        address = deployment.scheme.address
        for router in internet.network.routers(victim):
            assert not router.accepts_ipv4(address)
            assert router.vn_state_for(8) is None

    def test_link_failure_then_reconvergence(self, internet):
        """Fail one provider link of a multihomed stub: BGP sessions
        resync, routing shifts to the surviving provider, and IPvN
        universal access is unharmed."""
        deployment = internet.new_deployment(version=8, scheme="default")
        anchor = deployment.scheme.default_asn
        deployment.deploy(anchor)
        deployment.rebuild()
        assert internet.reachability(8, sample=15).delivery_ratio == 1.0
        multihomed = next(asn for asn in internet.stub_asns()
                          if len(providers(internet.network.domains[asn])) >= 2)
        victim_provider = providers(internet.network.domains[multihomed])[0]
        for link in internet.network.links.values():
            ends = {internet.network.node(link.a).domain_id,
                    internet.network.node(link.b).domain_id}
            if ends == {multihomed, victim_provider}:
                link.fail()
                break
        deployment.rebuild()
        report = internet.reachability(8, sample=15)
        assert report.delivery_ratio == 1.0, report.failures


class TestMultiVersion:
    def test_three_generations_coexist(self, internet):
        """IPv8, IPv9, IPv10 deployed by different ISPs under different
        schemes, all with universal access at once."""
        tier1 = internet.tier1_asns()
        ipv8 = internet.new_deployment(version=8, scheme="default",
                                       default_asn=tier1[0])
        ipv9 = internet.new_deployment(version=9, scheme="global")
        ipv10 = internet.new_deployment(version=10, scheme="default",
                                        default_asn=tier1[1],
                                        egress_policy=EgressPolicy.PROXY)
        ipv8.deploy(tier1[0])
        ipv9.deploy(internet.stub_asns()[0])
        ipv10.deploy(tier1[1])
        for deployment in (ipv8, ipv9, ipv10):
            deployment.rebuild()
        for version in (8, 9, 10):
            report = internet.reachability(version, sample=15)
            assert report.delivery_ratio == 1.0, (version, report.failures)

    def test_versions_have_disjoint_anycast_addresses(self, internet):
        ipv8 = internet.new_deployment(version=8, scheme="default")
        ipv9 = internet.new_deployment(version=9, scheme="global")
        assert ipv8.scheme.address != ipv9.scheme.address

    def test_host_addresses_per_version(self, internet):
        ipv8 = internet.new_deployment(version=8, scheme="default")
        ipv9 = internet.new_deployment(version=9, scheme="global")
        ipv8.deploy(ipv8.scheme.default_asn)
        ipv9.deploy(internet.stub_asns()[0])
        ipv8.rebuild()
        ipv9.rebuild()
        host = internet.hosts()[0]
        a8 = ipv8.plan.ensure_host_address(host)
        a9 = ipv9.plan.ensure_host_address(host)
        assert a8.version == 8 and a9.version == 9
