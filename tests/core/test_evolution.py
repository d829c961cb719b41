"""Tests for the EvolvableInternet facade."""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.net.errors import DeploymentError
from repro.topogen import InternetSpec
from repro.vnbone import EgressPolicy

from tests.scenarios import ipv4_reachability


@pytest.fixture(scope="module")
def internet():
    return EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, hosts_per_stub=1, seed=11))


class TestConstruction:
    def test_generate_converges(self, internet):
        report = ipv4_reachability(internet, sample=20)
        assert report.delivery_ratio == 1.0

    def test_tier_queries(self, internet):
        assert len(internet.tier1_asns()) == 2
        assert len(internet.stub_asns()) == 5
        assert internet.hosts()

    def test_from_custom_network(self, hub_network):
        internet = EvolvableInternet(hub_network)
        assert ipv4_reachability(internet).delivery_ratio == 1.0


class TestDeployments:
    def test_default_scheme_picks_tier1(self, internet):
        deployment = internet.new_deployment(version=8)
        assert deployment.scheme.default_asn in internet.tier1_asns()

    def test_duplicate_version_rejected(self, internet):
        with pytest.raises(DeploymentError):
            internet.new_deployment(version=8)

    def test_unknown_scheme_rejected(self, internet):
        with pytest.raises(DeploymentError):
            internet.new_deployment(version=30, scheme="pigeon")

    def test_gia_needs_home(self, internet):
        with pytest.raises(DeploymentError):
            internet.new_deployment(version=31, scheme="gia")

    def test_deployment_lookup(self, internet):
        assert internet.deployment(8) is internet.deployments[8]
        with pytest.raises(DeploymentError):
            internet.deployment(99)

    def test_global_scheme(self, internet):
        deployment = internet.new_deployment(version=9, scheme="global")
        deployment.deploy(internet.tier1_asns()[0])
        deployment.rebuild()
        report = internet.reachability(9, sample=10)
        assert report.delivery_ratio == 1.0

    def test_two_versions_coexist(self, internet):
        ipv8 = internet.deployment(8)
        # Option 2 roots the anycast address in the default ISP — "the
        # first ISP to initiate deployment" — so that is who deploys.
        ipv8.deploy(ipv8.scheme.default_asn)
        ipv8.rebuild()
        assert internet.reachability(8, sample=10).delivery_ratio == 1.0
        assert internet.reachability(9, sample=10).delivery_ratio == 1.0


class TestMeasurement:
    def test_host_pairs_sampling(self, internet):
        pairs = internet.host_pairs(sample=7, seed=0)
        assert len(pairs) == 7
        assert internet.host_pairs(sample=7, seed=0) == pairs

    def test_reachability_universal_access(self, internet):
        report = internet.reachability(8, sample=15)
        assert report.delivery_ratio == 1.0
        assert report.mean_stretch >= 1.0

    def test_describe(self, internet):
        info = internet.describe()
        assert info["domains"] == 10
        assert 8 in info["deployments"]
