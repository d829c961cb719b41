"""Unit tests for the control-plane install machinery.

Covers the egress-link cache (:mod:`repro.bgp.egress`), Adj-RIB-In
pruning (no empty per-prefix dicts survive a withdrawal or session
flush), dirty-prefix tracking, MRAI-style update batching with its
per-message fallback, and the export/install gate counts.  The
end-to-end equivalence with the per-prefix oracle lives in
``test_install_equivalence``.
"""

from repro.bgp.egress import EgressCache, grouped_install_enabled
from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from repro.net import Prefix, ipv4
from repro.obs import Observability, observing
from tests.conftest import build_hub_network
from tests.oracles import per_message_bgp


class TestEgressCache:
    def test_second_scan_is_a_hit(self, converged_two_domain):
        net = converged_two_domain.network
        cache = EgressCache(net)
        first = cache.links(1, 2)
        assert first == [("r1b", "r2b")]
        assert cache.links(1, 2) == first
        assert cache.stats() == {"hits": 1, "misses": 1,
                                 "invalidations": 0, "entries": 1}

    def test_no_session_means_no_links(self, converged_two_domain):
        cache = EgressCache(converged_two_domain.network)
        assert cache.links(1, 99) == []

    def test_version_bump_invalidates(self, converged_two_domain):
        net = converged_two_domain.network
        cache = EgressCache(net)
        assert cache.links(1, 2) == [("r1b", "r2b")]
        net.link_between("r1b", "r2b").fail()
        # The dead link must disappear from the recomputed answer.
        assert cache.links(1, 2) == []
        assert cache.invalidations == 1
        net.link_between("r1b", "r2b").restore()
        assert cache.links(1, 2) == [("r1b", "r2b")]
        assert cache.invalidations == 2

    def test_protocol_egress_goes_through_the_cache(self, converged_hub):
        bgp = converged_hub.bgp
        misses = bgp.egress_cache.misses
        assert misses > 0
        hits_before = bgp.egress_cache.hits
        # Session liveness checks rescan every (asn, neighbor) pair the
        # install pass already computed: all hits, no new misses.
        bgp.resync_sessions()
        assert bgp.egress_cache.hits > hits_before
        assert bgp.egress_cache.misses == misses


class TestGroupedInstallSwitch:
    def test_default_is_grouped(self):
        # No longer a switch: the constant bench/harness.py::provenance
        # records until its ``switches`` block goes.
        assert grouped_install_enabled() is True


def assert_no_empty_ribs(bgp):
    for asn, speaker in bgp.speakers.items():
        for prefix, rib in speaker.adj_rib_in.items():
            assert rib, (f"AS{asn} keeps an empty Adj-RIB-In dict "
                         f"for {prefix}")


class TestAdjRibInPruning:
    def test_withdrawal_prunes_empty_rib_dicts(self, converged_chain):
        bgp = converged_chain.bgp
        pfx = Prefix.host(ipv4("240.0.0.1"))
        bgp.originate(1, pfx, scope=RouteScope.ANYCAST_GLOBAL)
        converged_chain.scheduler.run_until_idle()
        assert any(pfx in s.adj_rib_in for s in bgp.speakers.values())
        bgp.withdraw(1, pfx)
        converged_chain.scheduler.run_until_idle()
        # The last-neighbor delete must remove the per-prefix dict
        # itself, not leave an empty shell behind.
        for speaker in bgp.speakers.values():
            assert pfx not in speaker.adj_rib_in
        assert_no_empty_ribs(bgp)

    def test_session_flush_prunes_empty_rib_dicts(self, converged_two_domain):
        orch = converged_two_domain
        orch.network.link_between("r1b", "r2b").fail()
        orch.bgp.resync_sessions()
        orch.scheduler.run_until_idle()
        assert_no_empty_ribs(orch.bgp)
        # Both sides flushed the peer-learned prefix entirely.
        net = orch.network
        assert net.domains[2].prefix not in orch.bgp.speaker(1).adj_rib_in
        assert net.domains[1].prefix not in orch.bgp.speaker(2).adj_rib_in

    def test_converged_state_has_no_empty_ribs(self, converged_hub):
        assert_no_empty_ribs(converged_hub.bgp)


class TestDirtyTracking:
    def test_install_clears_dirty(self, converged_hub):
        for speaker in converged_hub.bgp.speakers.values():
            assert speaker.dirty == set()

    def test_loc_rib_change_marks_dirty(self, converged_chain):
        bgp = converged_chain.bgp
        pfx = Prefix.host(ipv4("240.0.0.1"))
        bgp.originate(1, pfx, scope=RouteScope.ANYCAST_GLOBAL)
        converged_chain.scheduler.run_until_idle()
        for asn in (1, 2, 3, 4):
            assert pfx in bgp.speaker(asn).dirty
        bgp.install_routes()
        for asn in (1, 2, 3, 4):
            assert bgp.speaker(asn).dirty == set()

    def test_unchanged_decision_stays_clean(self, converged_chain):
        bgp = converged_chain.bgp
        speaker = bgp.speaker(4)
        pfx = converged_chain.network.domains[1].prefix
        assert speaker.decide(pfx) is not None  # same best as before
        assert pfx not in speaker.dirty


class TestMraiBatching:
    def test_same_tick_updates_coalesce_into_one_batch(self, converged_chain):
        bgp = converged_chain.bgp
        p1 = Prefix.host(ipv4("240.0.0.1"))
        p2 = Prefix.host(ipv4("240.0.0.2"))
        bgp.originate(4, p1, scope=RouteScope.ANYCAST_GLOBAL)
        bgp.originate(4, p2, scope=RouteScope.ANYCAST_GLOBAL)
        # AS4's only neighbor is AS3: two same-tick updates, one batch.
        assert len(bgp._pending_batches) == 1
        (batch,) = bgp._pending_batches.values()
        assert [u.prefix for u in batch] == [p1, p2]  # send order kept
        converged_chain.scheduler.run_until_idle()
        assert bgp._pending_batches == {}
        for asn in (1, 2, 3):
            assert bgp.speaker(asn).loc_rib.get(p1) is not None
            assert bgp.speaker(asn).loc_rib.get(p2) is not None

    def test_batching_reduces_convergence_events(self):
        def run():
            orch = Orchestrator(build_hub_network())
            orch.converge()
            return orch

        batched = run()
        with per_message_bgp():
            per_message = run()
        assert (batched.scheduler.events_processed
                < per_message.scheduler.events_processed)
        # Same traffic over the sessions, just fewer delivery events.
        assert batched.bgp.stats.sent == per_message.bgp.stats.sent
        assert batched.bgp.stats.delivered == per_message.bgp.stats.delivered

    def test_perturbation_falls_back_to_per_message(self, converged_chain):
        bgp = converged_chain.bgp
        scheduler = converged_chain.scheduler
        scheduler.set_message_perturbation(loss_prob=0.0)
        try:
            pfx = Prefix.host(ipv4("240.0.0.1"))
            bgp.originate(4, pfx, scope=RouteScope.ANYCAST_GLOBAL)
            # Loss/jitter draws are per message: nothing may batch.
            assert bgp._pending_batches == {}
            scheduler.run_until_idle()
        finally:
            scheduler.clear_message_perturbation()
        assert bgp.speaker(1).loc_rib.get(pfx) is not None

    def test_seed_mode_never_batches(self):
        """With a (no-op) perturbation set from the start, every update
        of a whole convergence is sent per message — nothing is ever
        queued — and each session still sees the updates batching
        delivers, in the same order."""
        def run(per_message):
            orch = Orchestrator(build_hub_network())
            if per_message:
                orch.scheduler.set_message_perturbation(loss_prob=0.0)
            deliveries = {}
            queued = []
            receive = orch.bgp._receive

            def logged(asn, update):
                queued.append(len(orch.bgp._pending_batches))
                deliveries.setdefault((update.sender_asn, asn), []).append(
                    (update.prefix, update.route))
                receive(asn, update)

            orch.bgp._receive = logged
            orch.converge()
            return deliveries, queued

        batched, batched_queued = run(per_message=False)
        per_message, per_message_queued = run(per_message=True)
        assert any(batched_queued)
        assert not any(per_message_queued)
        assert per_message == batched


class TestGateStats:
    def test_obs_counters_mirror_the_plain_ints(self):
        obs = Observability()
        with observing(obs):
            orch = Orchestrator(build_hub_network())
            orch.converge()
            orch.bgp.originate(2, Prefix.host(ipv4("240.0.0.9")),
                               scope=RouteScope.ANYCAST_GLOBAL)
            orch.reconverge()
        stats = orch.bgp.gate_stats()
        assert stats["routers_patched"] > 0 and stats["domains_rebuilt"] == 4
        assert stats == {
            "export_policy_checks": obs.counter("bgp.export.policy_checks").value,
            **{key: obs.counter(f"bgp.install.{key}").value
               for key in ("domains_rebuilt", "routers_rebuilt",
                           "routers_patched")}}

    def test_plain_ints_count_without_an_observer(self, converged_hub):
        stats = converged_hub.bgp.gate_stats()
        assert stats["export_policy_checks"] == converged_hub.bgp.stats.sent > 0
        assert stats["routers_rebuilt"] == 8 and stats["routers_patched"] == 0
