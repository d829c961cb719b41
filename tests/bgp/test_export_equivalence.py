"""Export per session == export per AS-level neighbour, update for update.

``BgpProtocol._export`` asks policy only about the neighbours that have
a speaker and builds the prepended route once per export;
``tests/oracles.py::reference_export`` is the loop over every
neighbour, with a route prepended per neighbour, that it replaced.
``checked_bgp_exports`` spies ``_send`` and holds every ``_export`` and
``_export_withdrawal`` of a run to that reference — the same
``(to_asn, update)`` pairs in the same order — over a default-routed
stub fringe, both of the paper's inter-domain anycast options, session
and speaker faults, a speaker registered late, and per-message sending.
(The churn scenario of ``tests/routing/test_install_gate.py`` runs under
the same check.)  The last two tests show the check bites.
"""

import pytest

from repro.anycast import DefaultRootedAnycast, GlobalAnycast
from repro.bgp.protocol import BgpProtocol
from repro.bgp.routes import BgpRoute
from repro.core.orchestrator import Orchestrator
from repro.faults import FaultInjector, FaultPlan
from repro.net import Domain, Prefix, Relationship
from repro.topogen import figure2
from repro.topogen.scale import (generate_scale_internet,
                                 spec_for_router_budget)

from tests.conftest import build_chain_network, build_hub_network
from tests.oracles import (checked_bgp_exports, checked_bgp_installs,
                           per_message_bgp)


def scale_cell():
    """The 300-router scale cell: 6 transit speakers under a fringe of
    132 default-routed stubs."""
    generated = generate_scale_internet(spec_for_router_budget(300, seed=42))
    orch = Orchestrator(generated.network, seed=42)
    orch.converge()
    return orch


def test_initial_convergence_over_a_default_routed_fringe():
    with checked_bgp_exports() as checked, checked_bgp_installs() as installs:
        orch = scale_cell()
    assert len(installs) == 1 and any(installs[0].rows.values())
    domains = orch.network.domains
    assert sum(domain.default_routed for domain in domains.values()) > 100
    assert checked["exports"] > len(orch.bgp.speakers)
    # Every update the reference keeps was sent, and nothing else.
    assert checked["updates"] == orch.bgp.stats.sent > 0


def test_every_policy_evaluation_becomes_a_message():
    """The fringe costs no export work: policy is asked once per update
    sent, not once per AS-level neighbour."""
    orch = scale_cell()
    neighbours = sum(len(orch.network.domains[asn].neighbor_asns())
                     for asn in orch.bgp.speakers)
    sessions = sum(len(orch.bgp._session_peers(orch.network.domains[asn]))
                   for asn in orch.bgp.speakers)
    assert neighbours > 4 * sessions
    assert (0 < orch.bgp.gate_stats()["export_policy_checks"]
            <= orch.bgp.stats.sent)


def test_global_anycast_past_a_non_propagating_transit():
    """Option 1: the hub refuses the anycast route, so its exports of it
    are withdrawals — one shared by every peer."""
    with checked_bgp_exports() as checked:
        orch = Orchestrator(build_hub_network())
        orch.converge()
        orch.network.domains[1].propagates_anycast = False
        scheme = GlobalAnycast(orch, "g")
        scheme.add_member("x2")
        orch.reconverge()
        scheme.add_member("z2")
        orch.reconverge()
        scheme.remove_member("x2")
        orch.reconverge()
    assert checked["exports"] > 0
    assert orch.bgp.speaker(3).best_route(Prefix.host(scheme.address)) is None


@pytest.mark.parametrize("transitive", [False, True],
                         ids=["bilateral", "transitive"])
def test_bilateral_agreements(transitive):
    """Option 2's optional advertisement: exported over agreement edges
    only, re-exported by the receiver only when transitive."""
    with checked_bgp_exports() as checked:
        fig = figure2()
        orch = Orchestrator(fig.network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "vN", default_asn=fig.asn("D"))
        scheme.add_member("d1")
        scheme.add_member("q1")
        orch.reconverge()
        before = checked["exports"]
        pfx = Prefix.host(scheme.address)
        orch.agreements.add(pfx, fig.asn("Y"), fig.asn("P"))
        scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"),
                                     transitive=transitive)
        orch.reconverge()
        scheme.withdraw_from_neighbor(fig.asn("Q"), fig.asn("Y"))
        orch.reconverge()
    assert checked["exports"] > before > 0


def test_session_flap_and_speaker_crash():
    plan = (FaultPlan()
            .link_down("x1", "w1", at=10.0)
            .link_up("x1", "w1", at=50.0)
            .crash_node("y1", at=90.0)
            .crash_node("y2", at=90.0)
            .recover_node("y1", at=140.0)
            .recover_node("y2", at=140.0))
    with checked_bgp_exports() as checked:
        orch = Orchestrator(build_hub_network())
        orch.converge()
        converged = checked["exports"]
        FaultInjector(orch, plan).play()
    assert checked["exports"] > converged > 0


def late_domain(network):
    """AS9, a customer of AS1 (``w1``), connected to a running world."""
    domain = Domain(asn=9, name="late", prefix=Prefix.parse("10.9.0.0/16"))
    network.add_domain(domain)
    network.add_router("l1", 9, is_border=True)
    network.connect_domains(9, 1, "l1", "w1", Relationship.PROVIDER)
    return domain


def test_a_neighbour_is_a_peer_once_it_has_a_speaker():
    """A domain connected after construction is a neighbour without a
    speaker, then a session peer from ``add_speaker`` on — with no
    invalidation in between."""
    with checked_bgp_exports() as checked:
        orch = Orchestrator(build_hub_network())
        orch.converge()
        bgp = orch.bgp
        domain = late_domain(orch.network)
        assert not domain.default_routed
        sent = bgp.stats.sent
        bgp.reannounce(1)  # AS9 is a neighbour of AS1 and hears nothing
        assert bgp.stats.sent - sent == 3 * len(bgp.speaker(1).loc_rib)
        orch.scheduler.run_until_idle()
        bgp.add_speaker(domain)
        bgp.originate(9, domain.prefix)
        bgp.reannounce(1)
        orch.scheduler.run_until_idle()
    assert checked["exports"] > 0
    assert bgp.speaker(4).best_route(domain.prefix).as_path == (1, 9)
    assert len(bgp.speaker(9).loc_rib) == 5


def test_per_message_sending():
    with per_message_bgp(), checked_bgp_exports() as checked:
        orch = Orchestrator(build_chain_network())
        orch.converge()
        orch.bgp.withdraw(1, orch.network.domains[1].prefix)
        orch.scheduler.run_until_idle()
    assert checked["exports"] > 0
    assert checked["updates"] == orch.bgp.stats.sent == orch.bgp.stats.delivered


# -- the check bites ----------------------------------------------------------
def test_a_peer_filter_that_asks_the_domain_not_the_speakers_fails(monkeypatch):
    """``not default_routed`` is how speakers are chosen at construction,
    not who has one now: the spy sees a ``_send`` the reference never
    makes."""
    orch = Orchestrator(build_hub_network())
    orch.converge()
    domains = orch.network.domains
    monkeypatch.setattr(
        BgpProtocol, "_session_peers",
        lambda self, domain: sorted(asn for asn in domain.neighbor_asns()
                                    if not domains[asn].default_routed))
    late_domain(orch.network)
    with checked_bgp_exports(), pytest.raises(AssertionError):
        orch.bgp.reannounce(1)


def test_a_route_prepended_with_the_wrong_asn_fails(monkeypatch):
    prepended = BgpRoute.prepended
    monkeypatch.setattr(BgpRoute, "prepended",
                        lambda self, asn: prepended(self, asn + 1))
    with checked_bgp_exports(), pytest.raises(AssertionError):
        Orchestrator(build_chain_network()).converge()
