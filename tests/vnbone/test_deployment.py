"""Integration tests for the VnDeployment facade."""

import pytest

from repro.net import Outcome
from repro.net.errors import DeploymentError
from repro.net.packet import IPv4Header, vn_packet
from repro.anycast import DefaultRootedAnycast, GlobalAnycast
from repro.vnbone import EgressPolicy, VnDeployment, adoption_rng

#: Every fast-path replay and cache hit in this module is re-derived
#: and compared (tests/oracles.py).
pytestmark = pytest.mark.usefixtures("paranoid_caches")


@pytest.fixture
def deployment(converged_hub):
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
    return VnDeployment(converged_hub, scheme, version=8)


class TestLifecycle:
    def test_deploy_all_routers(self, converged_hub, deployment):
        chosen = deployment.deploy(2)
        assert chosen == {"x1", "x2"}
        assert deployment.members() == {"x1", "x2"}
        assert converged_hub.network.node("x1").vn_state_for(8) is not None

    def test_deploy_fraction_is_partial_and_deterministic(self, converged_hub,
                                                          deployment):
        chosen = deployment.deploy(2, fraction=0.5, rng=adoption_rng(2))
        assert len(chosen) == 1
        scheme2 = GlobalAnycast(converged_hub, "other")
        dep2 = VnDeployment(converged_hub, scheme2, version=9)
        assert dep2.deploy(2, fraction=0.5, rng=adoption_rng(2)) == chosen

    def test_deploy_fraction_requires_rng(self, deployment):
        with pytest.raises(DeploymentError, match="seeded rng"):
            deployment.deploy(2, fraction=0.5)

    def test_deploy_explicit_subset(self, deployment):
        assert deployment.deploy(2, router_ids={"x2"}) == {"x2"}
        assert deployment.members() == {"x2"}

    def test_invalid_fraction(self, deployment):
        with pytest.raises(DeploymentError):
            deployment.deploy(2, fraction=0.0)
        with pytest.raises(DeploymentError):
            deployment.deploy(2, fraction=1.5)

    def test_unknown_domain(self, deployment):
        with pytest.raises(DeploymentError):
            deployment.deploy(99)

    @pytest.mark.parametrize("change", [
        lambda deployment: deployment.deploy(99),
        lambda deployment: deployment.expand(99, {"x1"}),
        lambda deployment: deployment.undeploy(99),
    ], ids=["deploy", "expand", "undeploy"])
    def test_unknown_domain_is_a_deployment_error(self, deployment, change):
        with pytest.raises(DeploymentError, match="unknown domain AS99"):
            change(deployment)

    def test_expand(self, deployment):
        deployment.deploy(2, router_ids={"x2"})
        deployment.expand(2, {"x1"})
        assert deployment.members() == {"x1", "x2"}

    def test_expand_requires_prior_deploy(self, deployment):
        with pytest.raises(DeploymentError):
            deployment.expand(2, {"x1"})

    def test_undeploy_cleans_everything(self, converged_hub, deployment):
        deployment.deploy(2)
        deployment.rebuild()
        deployment.undeploy(2)
        deployment.rebuild()
        assert deployment.members() == set()
        assert converged_hub.network.node("x1").vn_state_for(8) is None
        assert not converged_hub.network.domains[2].deploys(8)

    def test_members_by_domain(self, deployment):
        deployment.deploy(2)
        deployment.deploy(3, router_ids={"y1"})
        assert deployment.members_by_domain() == {2: {"x1", "x2"}, 3: {"y1"}}
        assert deployment.adopting_asns() == {2, 3}

    def test_state_of_unknown_raises(self, deployment):
        with pytest.raises(DeploymentError):
            deployment.state_of("x1")


class TestRebuild:
    def test_rebuild_creates_tunnels_and_routes(self, deployment):
        deployment.deploy(2)
        deployment.deploy(1)
        deployment.rebuild()
        assert deployment.tunnels
        kinds = {t.kind for t in deployment.tunnels}
        assert "inter" in kinds
        state = deployment.state_of("x1")
        assert state.fib.route_count() > 0
        assert not deployment.needs_rebuild

    def test_vn_border_marked(self, deployment):
        deployment.deploy(2)
        deployment.deploy(1)
        deployment.rebuild()
        borders = {rid for rid, s in deployment.states.items() if s.is_vn_border}
        assert borders  # the tunnel endpoints across AS1-AS2

    def test_vn_fib_sizes(self, deployment):
        deployment.deploy(2)
        deployment.rebuild()
        sizes = deployment.vn_fib_sizes()
        assert set(sizes) == {"x1", "x2"}
        assert all(size > 0 for size in sizes.values())


class TestSend:
    def test_send_between_native_and_self_addressed(self, deployment):
        deployment.deploy(2)
        trace = deployment.send("hx", "hz")
        assert trace.outcome is Outcome.DELIVERED
        back = deployment.send("hz", "hx")
        assert back.outcome is Outcome.DELIVERED
        assert back.ingress_router in deployment.members()

    def test_send_between_two_self_addressed(self, deployment):
        deployment.deploy(1)  # only the hub deploys
        trace = deployment.send("hz", "hx")
        assert trace.outcome is Outcome.DELIVERED
        assert trace.vn_hops >= 0
        assert trace.encapsulations >= 1

    def test_send_native_to_native(self, deployment):
        deployment.deploy(2)
        deployment.deploy(4)
        trace = deployment.send("hx", "hz")
        assert trace.outcome is Outcome.DELIVERED
        # Destination now native: delivery must come through the vN FIB
        # host entry, not the fallback.
        assert trace.egress_router is not None

    def test_send_rebuilds_lazily(self, deployment):
        deployment.deploy(2)
        assert deployment.needs_rebuild
        deployment.send("hx", "hz")
        assert not deployment.needs_rebuild

    def test_send_hands_forward_the_host_stack(self, converged_hub,
                                               deployment, monkeypatch):
        """A send forwards exactly Section 3.1's packet: the IPvN header
        innermost, inside IPv4 from the host to ``A_N``, over the
        payload — the stack ``vn_packet`` + ``encapsulate`` builds."""
        sent = []
        forward = converged_hub.forward

        def spy(packet, start, *args, **kwargs):
            sent.append((list(packet.headers), packet.payload,
                         packet.packet_id, start))
            return forward(packet, start, *args, **kwargs)

        monkeypatch.setattr(converged_hub, "forward", spy)
        deployment.deploy(2)
        payload = object()
        deployment.send("hx", "hz", payload=payload, ttl=9)
        deployment.send("hx", "hz", payload=payload, ttl=9)
        deployment.send("hz", "hx")

        assert len(sent) == 3
        plan, network = deployment.plan, converged_hub.network
        for (headers, carried, _, start), (src, dst, ttl) in zip(
                sent, [("hx", "hz", 9), ("hx", "hz", 9), ("hz", "hx", 64)]):
            expected = vn_packet(plan.ensure_host_address(src),
                                 plan.ensure_host_address(dst), ttl=ttl)
            expected.encapsulate(IPv4Header(src=network.node(src).ipv4,
                                            dst=deployment.scheme.address))
            assert headers == expected.headers
            assert ([type(h) for h in headers]
                    == [type(h) for h in expected.headers])
            assert start == src
            assert carried is (payload if src == "hx" else None)
        assert len({packet_id for _, _, packet_id, _ in sent}) == 3  # unique

    def test_send_requires_hosts(self, deployment):
        deployment.deploy(2)
        deployment.rebuild()
        with pytest.raises(DeploymentError):
            deployment.send("x1", "hz")
        deployment.send("hx", "hz")
        with pytest.raises(DeploymentError):
            deployment.send("hx", "x1")


class TestSenderResolution:
    """``send`` reuses each host's ``(Host, VNAddress)`` only while the
    answer cannot have moved.  Each test changes the answer one way and
    requires the next send's IPvN header to carry what
    ``ensure_host_address`` says now (``paranoid_caches`` re-derives
    every reused answer too)."""

    @pytest.fixture
    def sent(self, converged_hub, monkeypatch):
        """(src, dst) of the IPvN header of every forwarded packet."""
        headers = []
        forward = converged_hub.forward

        def spy(packet, start, *args, **kwargs):
            headers.append((packet.inner.src, packet.inner.dst))
            return forward(packet, start, *args, **kwargs)

        monkeypatch.setattr(converged_hub, "forward", spy)
        return headers

    @staticmethod
    def send_and_check(deployment, sent, src="hx", dst="hz"):
        deployment.send(src, dst)
        plan = deployment.plan
        assert sent[-1] == (plan.ensure_host_address(src),
                            plan.ensure_host_address(dst))
        return sent[-1]

    def test_a_repeated_send_reuses_both_hosts(self, deployment, sent,
                                               paranoid_caches):
        deployment.deploy(2)
        first = self.send_and_check(deployment, sent)
        reused = paranoid_caches["send_hosts"]
        assert self.send_and_check(deployment, sent) == first
        assert self.send_and_check(deployment, sent, "hz", "hx") == first[::-1]
        assert paranoid_caches["send_hosts"] == reused + 4

    def test_a_never_addressed_host_s_first_send(self, deployment, sent):
        deployment.deploy(2)
        deployment.rebuild()
        assert deployment.plan.address_of("hz") is None
        _, dst = self.send_and_check(deployment, sent)
        assert dst.is_self_assigned
        assert deployment.plan.address_of("hz") == dst

    def test_deploying_the_sender_s_domain(self, deployment, sent):
        deployment.deploy(1)
        src, _ = self.send_and_check(deployment, sent)
        assert src.is_self_assigned
        deployment.deploy(2)
        src, _ = self.send_and_check(deployment, sent)
        assert not src.is_self_assigned

    def test_undeploying_the_sender_s_domain(self, deployment, sent):
        deployment.deploy(1)
        deployment.deploy(2)
        src, _ = self.send_and_check(deployment, sent)
        assert not src.is_self_assigned
        deployment.undeploy(2)
        src, _ = self.send_and_check(deployment, sent)
        assert src.is_self_assigned

    def test_readopting_between_two_sends(self, deployment, sent):
        # Same domain and the same adoption as at the first send, but the
        # host was relabeled twice: only the drop in _assign sees it.
        deployment.deploy(1)
        deployment.deploy(2)
        before, _ = self.send_and_check(deployment, sent)
        deployment.undeploy(2)
        deployment.deploy(2)
        after, _ = self.send_and_check(deployment, sent)
        assert not after.is_self_assigned and after != before

    def test_expand_keeps_the_answer(self, deployment, sent, paranoid_caches):
        deployment.deploy(1)
        deployment.deploy(2, router_ids={"x2"})
        first = self.send_and_check(deployment, sent)
        reused = paranoid_caches["send_hosts"]
        deployment.expand(2, {"x1"})
        assert self.send_and_check(deployment, sent) == first
        assert paranoid_caches["send_hosts"] >= reused + 2

    def test_a_direct_deploy_version_relabels_lazily(self, converged_hub,
                                                     deployment, sent):
        # Domain.deploy_version bypasses the plan: host_address relabels
        # on the next read, so the send must not reuse the old answer.
        deployment.deploy(1)
        src, _ = self.send_and_check(deployment, sent)
        assert src.is_self_assigned
        converged_hub.network.domains[2].deploy_version(8, {"x2"})
        src, _ = self.send_and_check(deployment, sent)
        assert not src.is_self_assigned

    def test_a_host_moved_to_a_non_adopting_domain(self, converged_hub,
                                                   deployment, sent):
        # Its old domain still adopts: only the domain check sees it.
        deployment.deploy(1)
        deployment.deploy(2)
        src, _ = self.send_and_check(deployment, sent)
        assert not src.is_self_assigned
        converged_hub.network.move_host("hx", 3, "y2")
        src, _ = self.send_and_check(deployment, sent)
        assert src.is_self_assigned

    def test_a_mobile_host_keeps_its_pinned_address(self, converged_hub,
                                                    deployment, sent,
                                                    paranoid_caches):
        from repro.vnbone.mobility import MobilityService

        deployment.deploy(1)
        deployment.deploy(2)
        mobility = MobilityService(deployment)
        self.send_and_check(deployment, sent)
        identity = mobility.enable("hx")
        assert not identity.is_self_assigned
        mobility.move("hx", 3, "y2")
        assert self.send_and_check(deployment, sent)[0] == identity
        assert self.send_and_check(deployment, sent, "hz", "hx")[1] == identity
        assert mobility.reach("hz", "hx").outcome is Outcome.DELIVERED
        assert paranoid_caches["send_hosts"] > 0


class TestHostAdvertisedMode:
    def test_register_and_deliver(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
        deployment = VnDeployment(converged_hub, scheme, version=8,
                                  egress_policy=EgressPolicy.HOST_ADVERTISED,
                                  fallback_exit=False)
        deployment.deploy(2)
        deployment.rebuild()
        member = deployment.register_host("hz")
        assert member in deployment.members()
        trace = deployment.send("hx", "hz")
        assert trace.outcome is Outcome.DELIVERED

    def test_unregistered_destination_undeliverable(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
        deployment = VnDeployment(converged_hub, scheme, version=8,
                                  egress_policy=EgressPolicy.HOST_ADVERTISED,
                                  fallback_exit=False)
        deployment.deploy(2)
        deployment.rebuild()
        trace = deployment.send("hx", "hz")
        assert trace.outcome is not Outcome.DELIVERED
