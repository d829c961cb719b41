"""The paper's central requirement, as an invariant:

    "All clients can use IPvN if they so choose, regardless of whether
    their ISP deploys IPvN or assists their clients in accessing IPvN."

These tests sweep schemes, deployment patterns, and seeds on generated
internetworks and assert 100% IPvN delivery between all sampled host
pairs whenever at least one ISP has deployed.
"""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.topogen import InternetSpec
from repro.vnbone import EgressPolicy, adoption_rng

#: Every fast-path replay and cache hit in this module is re-derived
#: and compared (tests/oracles.py).
pytestmark = pytest.mark.usefixtures("paranoid_caches")


def build_internet(seed, igp_overrides=None):
    spec = InternetSpec(n_tier1=2, n_tier2=4, n_stub=6, hosts_per_stub=1,
                        seed=seed)
    return EvolvableInternet.generate(spec, seed=seed,
                                      igp_overrides=igp_overrides)


class TestSingleIspDeployment:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_scheme_one_tier1(self, seed):
        internet = build_internet(seed)
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.rebuild()
        report = internet.reachability(8, sample=30, seed=seed)
        assert report.delivery_ratio == 1.0, report.failures

    @pytest.mark.parametrize("seed", [0, 1])
    def test_global_scheme_one_tier2(self, seed):
        internet = build_internet(seed)
        deployment = internet.new_deployment(version=8, scheme="global")
        tier2 = sorted(asn for asn, d in internet.network.domains.items()
                       if d.tier == 2)
        deployment.deploy(tier2[0])
        deployment.rebuild()
        report = internet.reachability(8, sample=30, seed=seed)
        assert report.delivery_ratio == 1.0, report.failures

    def test_single_stub_deployment_still_universal(self):
        """Even a lone stub ISP deploying gives *everyone* access."""
        internet = build_internet(3)
        deployment = internet.new_deployment(version=8, scheme="global")
        deployment.deploy(internet.stub_asns()[0])
        deployment.rebuild()
        report = internet.reachability(8, sample=30)
        assert report.delivery_ratio == 1.0, report.failures


class TestPartialIntraIspDeployment:
    """Assumption A1: only a subset of an ISP's routers run IPvN."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5])
    def test_fractional_deployment(self, fraction):
        internet = build_internet(4)
        deployment = internet.new_deployment(version=8, scheme="default")
        adopter = deployment.scheme.default_asn
        deployment.deploy(adopter, fraction=fraction,
                          rng=adoption_rng(adopter))
        deployment.rebuild()
        report = internet.reachability(8, sample=30)
        assert report.delivery_ratio == 1.0, report.failures


class TestMixedIgps:
    def test_distance_vector_domains_participate(self):
        """Universal access must not depend on the IGP flavor
        (distance-vector domains lack member discovery; construction
        falls back to anycast bootstrap)."""
        overrides = {asn: "distancevector" for asn in (1, 3, 5)}
        internet = build_internet(5, igp_overrides=overrides)
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.deploy(3)
        deployment.rebuild()
        report = internet.reachability(8, sample=30)
        assert report.delivery_ratio == 1.0, report.failures


class TestSpreadImprovesButNeverBreaks:
    def test_reachability_stays_total_as_deployment_spreads(self):
        internet = build_internet(6)
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.rebuild()
        ratios = []
        stretches = []
        for asn in internet.stub_asns()[:4]:
            deployment.deploy(asn)
            deployment.rebuild()
            report = internet.reachability(8, sample=25)
            ratios.append(report.delivery_ratio)
            stretches.append(report.mean_stretch)
        assert all(r == 1.0 for r in ratios)
        assert all(s >= 1.0 for s in stretches)

    def test_egress_policies_all_preserve_access(self):
        for policy in (EgressPolicy.EXIT_IMMEDIATELY,
                       EgressPolicy.BGP_INFORMED, EgressPolicy.PROXY):
            internet = build_internet(7)
            deployment = internet.new_deployment(version=8, scheme="default",
                                                 egress_policy=policy)
            deployment.deploy(deployment.scheme.default_asn)
            deployment.rebuild()
            report = internet.reachability(8, sample=20)
            assert report.delivery_ratio == 1.0, (policy, report.failures)
