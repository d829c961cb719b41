"""Tests for host mobility over an IPvN."""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.net.errors import DeploymentError, TopologyError
from repro.topogen import InternetSpec
from repro.vnbone.mobility import MobilityService

#: Every fast-path replay and cache hit in this module is re-derived
#: and compared (tests/oracles.py).
pytestmark = pytest.mark.usefixtures("paranoid_caches")


@pytest.fixture
def setup():
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=4, n_stub=6, hosts_per_stub=1,
                     seed=88), seed=88)
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    deployment.rebuild()
    return internet, deployment, MobilityService(deployment)


def new_home(internet, host_id):
    current = internet.network.node(host_id).domain_id
    asn = next(a for a in internet.stub_asns() if a != current)
    access = sorted(internet.network.domains[asn].routers)[0]
    return asn, access


class TestNetworkMoveHost:
    def test_locator_changes_and_old_dies(self, setup):
        internet, _, _ = setup
        host_id = internet.hosts()[0]
        host = internet.network.node(host_id)
        old_ipv4 = host.ipv4
        asn, access = new_home(internet, host_id)
        internet.network.move_host(host_id, asn, access)
        assert host.domain_id == asn
        assert host.ipv4 != old_ipv4
        assert internet.network.domains[asn].prefix.contains(host.ipv4)
        assert internet.network.node_by_ipv4(old_ipv4) is None
        assert internet.network.node_by_ipv4(host.ipv4) is host

    def test_old_attachment_cleaned(self, setup):
        internet, _, _ = setup
        host_id = internet.hosts()[0]
        old_access = internet.network.node(host_id).access_router
        asn, access = new_home(internet, host_id)
        internet.network.move_host(host_id, asn, access)
        assert internet.network.link_between(host_id, old_access) is None
        assert host_id not in internet.network.domains[
            internet.network.node(old_access).domain_id].hosts

    def test_move_requires_host(self, setup):
        internet, _, _ = setup
        router = sorted(internet.network.domains[1].routers)[0]
        asn, access = new_home(internet, internet.hosts()[0])
        with pytest.raises(TopologyError):
            internet.network.move_host(router, asn, access)

    def test_move_validates_access_router(self, setup):
        internet, _, _ = setup
        host_id = internet.hosts()[0]
        with pytest.raises(TopologyError):
            internet.network.move_host(host_id, internet.stub_asns()[0],
                                       "ghost")


class TestMobilityService:
    def test_identity_survives_move(self, setup):
        internet, deployment, mobility = setup
        mobile = internet.hosts()[0]
        identity = mobility.enable(mobile)
        asn, access = new_home(internet, mobile)
        record = mobility.move(mobile, asn, access)
        assert mobility.identity_of(mobile) == identity
        assert internet.network.node(mobile).vn_address(8) == identity
        assert record.old_ipv4 != record.new_ipv4

    def test_correspondent_reaches_moved_host(self, setup):
        internet, deployment, mobility = setup
        mobile, corr = internet.hosts()[0], internet.hosts()[-1]
        mobility.enable(mobile)
        before = mobility.reach(corr, mobile)
        assert before.delivered
        asn, access = new_home(internet, mobile)
        mobility.move(mobile, asn, access)
        after = mobility.reach(corr, mobile)
        assert after.delivered and after.delivered_to == mobile

    def test_ipv4_to_old_locator_breaks(self, setup):
        internet, deployment, mobility = setup
        mobile, corr = internet.hosts()[0], internet.hosts()[-1]
        mobility.enable(mobile)
        asn, access = new_home(internet, mobile)
        record = mobility.move(mobile, asn, access)
        trace = mobility.ipv4_reach_old_locator(corr, record)
        assert trace.delivered_to != mobile

    def test_two_consecutive_moves(self, setup):
        internet, deployment, mobility = setup
        mobile, corr = internet.hosts()[0], internet.hosts()[-1]
        mobility.enable(mobile)
        first_asn, first_access = new_home(internet, mobile)
        mobility.move(mobile, first_asn, first_access)
        second_asn = next(a for a in internet.stub_asns()
                          if a != first_asn)
        second_access = sorted(
            internet.network.domains[second_asn].routers)[0]
        mobility.move(mobile, second_asn, second_access)
        trace = mobility.reach(corr, mobile)
        assert trace.delivered and trace.delivered_to == mobile
        assert len(mobility.moves) == 2

    def test_move_requires_enable(self, setup):
        internet, _, mobility = setup
        with pytest.raises(DeploymentError):
            mobility.move(internet.hosts()[0], internet.stub_asns()[0], "x")

    def test_mobile_flag(self, setup):
        internet, _, mobility = setup
        host = internet.hosts()[0]
        assert not mobility.is_mobile(host)
        mobility.enable(host)
        assert mobility.is_mobile(host)

    def test_move_into_adopting_domain(self, setup):
        """Moving into an IPvN-deploying domain also works; the pinned
        identity wins over native relabeling."""
        internet, deployment, mobility = setup
        mobile, corr = internet.hosts()[0], internet.hosts()[-1]
        identity = mobility.enable(mobile)
        target = deployment.scheme.default_asn
        access = sorted(internet.network.domains[target].routers)[0]
        mobility.move(mobile, target, access)
        assert internet.network.node(mobile).vn_address(8) == identity
        trace = mobility.reach(corr, mobile)
        assert trace.delivered and trace.delivered_to == mobile
