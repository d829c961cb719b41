"""Grouped/incremental install == per-prefix install: byte-identical FIBs.

The control plane (grouped FIB installation over memoized egress maps,
incremental dirty-set reinstalls, MRAI-batched update propagation —
:mod:`repro.bgp.egress` / :mod:`repro.bgp.protocol`) is held to the
per-prefix oracle ``tests/oracles.py::seed_bgp_fib`` after *every*
``install_routes`` — on the three fixture networks, the four scenarios
and fault plans with session flaps, a speaker crash and a lossy window —
and batched sending is compared with the per-message path it falls
back to under a perturbation: identical FIBs, identical experiment
metrics, identical ``repro.report/v1`` critical paths.  Mirrors
``tests/perf/test_determinism`` (cached == re-derived) and
``tests/perf/test_fastpath`` (fast path == slow path).
"""

import pytest

from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from repro.faults import FaultInjector, FaultPlan
from repro.net import Prefix, ipv4
from repro.obs import Observability, observing
from tests.conftest import (build_chain_network, build_hub_network,
                            build_two_domain_network)
from tests.oracles import (checked_bgp_installs, installed_bgp_rows,
                           per_message_bgp, seed_bgp_fib)
from tests.scenarios import (SCENARIO_IDS, SCENARIOS, run_leg,
                             traced_fault_report)

BUILDERS = [build_two_domain_network, build_chain_network,
            build_hub_network]
BUILDER_IDS = ["two_domain", "chain", "hub"]
CACHE_IDS = ["cached", "uncached"]


def fib_snapshots(network):
    """Canonical dump of every FIB — the byte-identity witness."""
    return {node_id: node.fib4.snapshot()
            for node_id, node in sorted(network.nodes.items())}


def converged(build, seed=0):
    orch = Orchestrator(build(), seed=seed)
    orch.converge()
    return orch


def batched_and_per_message(run):
    """Run *run* as shipped — every install held to the oracle — and
    again held on per-message sending; both must end on the same FIBs.
    Returns ``(batched, per_message, installs)``."""
    with checked_bgp_installs() as installs:
        batched = run()
    with per_message_bgp():
        per_message = run()
    assert fib_snapshots(batched.network) == fib_snapshots(per_message.network)
    return batched, per_message, installs


def uncached_too(request, cached):
    """The ``uncached`` legs run under ``paranoid_caches``: every hit is
    re-derived, so the answers are those of a run without caches."""
    if not cached:
        request.getfixturevalue("paranoid_caches")


class TestFreshConvergence:
    @pytest.mark.parametrize("cached", [True, False], ids=CACHE_IDS)
    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_identical_fibs(self, build, cached, request):
        uncached_too(request, cached)
        _, _, installs = batched_and_per_message(lambda: converged(build))
        assert len(installs) == 1
        assert any(installs[0].rows.values())  # BGP did install routes

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_identical_loc_ribs_and_message_counts(self, build):
        batched = converged(build)
        with per_message_bgp():
            per_message = converged(build)
        for asn, speaker in batched.bgp.speakers.items():
            assert speaker.loc_rib == per_message.bgp.speakers[asn].loc_rib
            assert speaker.adj_rib_in == \
                per_message.bgp.speakers[asn].adj_rib_in
        # Batching coalesces deliveries into fewer scheduler events but
        # never changes how many updates flow over the sessions.
        assert batched.bgp.stats.sent == per_message.bgp.stats.sent
        assert batched.bgp.stats.delivered == per_message.bgp.stats.delivered

    def test_grouped_path_saves_install_lookups(self):
        orch = converged(build_hub_network)
        assert 0 < orch.bgp.install_fib_lookups
        assert (orch.bgp.install_fib_lookups
                < seed_bgp_fib(orch.network, orch.bgp).lookups)


def _scrub_event_counts(payload):
    """Drop scheduler-event counters from a leg payload.

    MRAI batching coalesces same-tick deliveries into fewer scheduler
    events — ``events_processed`` / ``message_totals.events`` shrinking
    is the optimization itself, so the equivalence bar covers
    everything *except* those counts.  Returns ``(scrubbed, counts)``
    where ``counts`` lists the removed values in traversal order.
    """
    counts = []

    def walk(value):
        if isinstance(value, dict):
            out = {}
            for key, item in value.items():
                if (key in ("events_processed", "events")
                        and isinstance(item, int)):
                    counts.append(item)
                    continue
                out[key] = walk(item)
            return out
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    return walk(payload), counts


class TestWorkloadMatrix:
    @pytest.mark.parametrize("name,scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_leg_metrics_identical_grouped_vs_seed(self, name, scenario):
        with checked_bgp_installs() as installs:
            on = run_leg(scenario, seed=11)
        assert installs  # every install of the scenario met the oracle
        with per_message_bgp():
            off = run_leg(scenario, seed=11)
        on_payload, on_events = _scrub_event_counts(on.payload)
        off_payload, off_events = _scrub_event_counts(off.payload)
        assert on_payload == off_payload
        # Batching may only ever *remove* scheduler events.
        assert len(on_events) == len(off_events)
        assert all(batched <= per_message
                   for batched, per_message in zip(on_events, off_events))


class TestFaultReconvergence:
    @pytest.mark.parametrize("cached", [True, False], ids=CACHE_IDS)
    def test_session_flap_reconverges_to_identical_fibs(self, cached,
                                                        request):
        """An inter-domain link flap tears the session down and brings
        it back: every reinstall along the way must meet the oracle."""
        uncached_too(request, cached)
        plan = (FaultPlan()
                .link_down("r1b", "r2b", at=10.0)
                .link_up("r1b", "r2b", at=50.0))

        def run():
            orch = converged(build_two_domain_network)
            FaultInjector(orch, plan).play()
            return orch

        _, _, installs = batched_and_per_message(run)
        assert len(installs) > 2  # initial + at least one per epoch

    def test_speaker_crash_and_recovery_identical_fibs(self):
        """Crashing every router of an AS flushes its speaker (marking
        the whole Loc-RIB dirty); recovery reannounces.  Every
        reinstall must meet the oracle."""
        plan = (FaultPlan()
                .crash_node("y1", at=10.0)
                .crash_node("y2", at=10.0)
                .recover_node("y1", at=60.0)
                .recover_node("y2", at=60.0))

        def run():
            orch = converged(build_hub_network)
            FaultInjector(orch, plan).play()
            return orch

        _, _, installs = batched_and_per_message(run)
        assert len(installs) > 2

    def test_lossy_window_falls_back_but_still_matches(self):
        """While a message perturbation is active, batching must fall
        back to per-message scheduling so the loss draws line up with
        an always-per-message run message for message — same seed, same
        survivors, same FIBs."""
        plan = (FaultPlan()
                .message_loss(start=5.0, end=40.0, prob=0.3)
                .link_down("r1b", "r2b", at=10.0)
                .link_up("r1b", "r2b", at=30.0))

        def run():
            orch = converged(build_two_domain_network, seed=13)
            FaultInjector(orch, plan).play()
            return orch

        batched, per_message, _ = batched_and_per_message(run)
        assert batched.scheduler.messages_lost > 0
        assert (batched.scheduler.messages_lost
                == per_message.scheduler.messages_lost)


class TestIncrementalReinstall:
    def test_incremental_matches_seed_reference(self):
        """A BGP-only change (no egress map moved) takes the
        incremental dirty-set branch; the result must equal the
        per-prefix recomputation."""
        pfx = Prefix.host(ipv4("240.0.0.9"))
        obs = Observability()
        with observing(obs), checked_bgp_installs() as installs:
            orch = converged(build_chain_network)
            orch.bgp.originate(2, pfx, scope=RouteScope.ANYCAST_GLOBAL)
            orch.scheduler.run_until_idle()
            orch.bgp.install_routes()
        assert len(installs) == 2
        # The second install really took the incremental branch...
        counter = obs.counter("perf.bgp.incremental_installs")
        assert counter.value >= 1
        # ...and reached every router (the new anycast route is live).
        entry = orch.network.node("z2").fib4.lookup(ipv4("240.0.0.9"))
        assert entry is not None

    def test_withdrawal_is_reinstalled_incrementally(self):
        pfx = Prefix.host(ipv4("240.0.0.9"))
        with checked_bgp_installs() as installs:
            orch = converged(build_chain_network)
            before = installed_bgp_rows(orch.network)
            bgp = orch.bgp
            bgp.originate(2, pfx, scope=RouteScope.ANYCAST_GLOBAL)
            orch.scheduler.run_until_idle()
            bgp.install_routes()
            assert installed_bgp_rows(orch.network) != before
            bgp.withdraw(2, pfx)
            orch.scheduler.run_until_idle()
            bgp.install_routes()
        assert len(installs) == 3
        assert installed_bgp_rows(orch.network) == before
        assert orch.network.node("z2").fib4.lookup(ipv4("240.0.0.9")) is None

    def test_quiescent_reinstall_is_free(self):
        orch = converged(build_hub_network)
        bgp = orch.bgp
        lookups_before = bgp.install_fib_lookups
        before = fib_snapshots(orch.network)
        bgp.install_routes()  # nothing dirty, same egress maps
        assert bgp.install_fib_lookups == lookups_before
        assert fib_snapshots(orch.network) == before


@pytest.mark.slow
def test_report_critical_paths_identical_grouped_vs_seed():
    with checked_bgp_installs():
        on = traced_fault_report()
    with per_message_bgp():
        off = traced_fault_report()
    assert len(on["epochs"]) == len(off["epochs"]) == 2
    for epoch_on, epoch_off in zip(on["epochs"], off["epochs"]):
        assert epoch_on["critical_path"] == epoch_off["critical_path"]
        assert epoch_on["transient"] == epoch_off["transient"]
        assert epoch_on["recovered"] == epoch_off["recovered"]
    assert on["forwarding"] == off["forwarding"]
