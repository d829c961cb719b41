"""Tests for the application-level redirection baselines (Section 2.2)."""

import pytest

from repro.net import Outcome
from repro.net.errors import RedirectionError
from repro.anycast import DefaultRootedAnycast
from repro.redirection import (BrokerLookupService, IspLookupService,
                               app_level_send)
from repro.vnbone import VnDeployment


@pytest.fixture
def deployment(converged_hub):
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
    dep = VnDeployment(converged_hub, scheme, version=8)
    dep.deploy(2)
    dep.rebuild()
    return dep


class TestIspLookup:
    def test_serves_customers_of_participants(self, deployment):
        service = IspLookupService(deployment)
        service.sync()
        answer = service.query("hx")  # hx is in adopting AS2
        assert answer is not None
        assert answer.router_id in deployment.members()

    def test_refuses_clients_of_non_participants(self, deployment):
        """The universal-access failure: hz's ISP (AS4) does not
        participate, so hz has no lookup service at all."""
        service = IspLookupService(deployment)
        service.sync()
        assert service.query("hz") is None
        assert service.failures == 1

    def test_explicit_participant_set(self, deployment):
        service = IspLookupService(deployment, participants={2, 4})
        service.sync()
        assert service.query("hz") is not None

    def test_does_not_violate_market_structure(self, deployment):
        assert not IspLookupService(deployment).violates_market_structure


class TestBrokerLookup:
    def test_serves_everyone(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        assert broker.query("hz") is not None
        assert broker.query("hx") is not None

    def test_violates_market_structure(self, deployment):
        assert BrokerLookupService(deployment).violates_market_structure

    def test_partial_visibility(self, converged_hub, deployment):
        deployment.deploy(4)  # members now in AS2 and AS4
        deployment.rebuild()
        broker = BrokerLookupService(deployment, reporting_asns={2})
        broker.sync()
        answer = broker.query("hz")
        # hz's nearest member is in its own AS4, but the broker cannot
        # see it: it refers to the reported (farther) AS2 member.
        assert answer is not None
        assert deployment.network.node(answer.router_id).domain_id == 2

    def test_staleness_after_churn(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        deployment.undeploy(2)
        deployment.deploy(3)
        deployment.rebuild()
        answer = broker.query("hz")  # answered from the stale snapshot
        assert answer is not None
        assert not answer.believed_member
        assert broker.stale_answers == 1

    def test_sync_clears_staleness(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        deployment.undeploy(2)
        deployment.deploy(3)
        deployment.rebuild()
        broker.sync()
        answer = broker.query("hz")
        assert answer is not None and answer.believed_member


class TestAppLevelSend:
    def test_delivery_with_fresh_service(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        trace = app_level_send(deployment, broker, "hz", "hx")
        assert trace.outcome is Outcome.DELIVERED

    def test_refusal_raises(self, deployment):
        service = IspLookupService(deployment)
        service.sync()
        with pytest.raises(RedirectionError):
            app_level_send(deployment, service, "hz", "hx")

    def test_stale_referral_blackholes(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        deployment.undeploy(2)
        deployment.deploy(3)
        deployment.rebuild()
        trace = app_level_send(deployment, broker, "hz", "hx")
        assert trace.outcome is not Outcome.DELIVERED


class TestComparison:
    def test_scorecard(self, deployment):
        broker = BrokerLookupService(deployment)
        broker.sync()
        isp = IspLookupService(deployment)
        isp.sync()
        assert broker.violates_market_structure
        assert app_level_send(deployment, broker, "hz", "hx").delivered
        with pytest.raises(RedirectionError):  # hz has no service
            app_level_send(deployment, isp, "hz", "hx")
