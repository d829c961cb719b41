"""Fast path == slow path: flow aggregation never changes answers.

Mirrors ``test_determinism``: every scenario runs twice on the same
seed — once as shipped and once with a fast path that finds and stores
nothing (``tests/oracles.py::slow_path_held``), so every packet walks
hop by hop — and the canonical JSON payloads must be bit-identical.
Fault plans forward on the same path as everything else, so a plan
whose probes repeat is served and must answer as the held leg does.  A
traced fault-epoch run additionally locks the ``repro.report/v1``
critical paths: an observed replay emits the span and event a walk
emits, so the span trees the analyzer extracts phase timings from are
the same event for event.  A traced run of repeated flows locks the
trace file itself.
"""

import pytest

from repro.analyze import build_report
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability, Tracer, observing, strip_wall_fields

from tests.oracles import slow_path_held
from tests.scenarios import (FAULT_SAMPLE, SCENARIO_IDS, SCENARIOS,
                             deployed_internet, ipv4_reachability, run_leg,
                             traced_fault_report)


@pytest.mark.parametrize("name,scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_fastpath_leg_matches_slowpath_leg(name, scenario):
    on = run_leg(scenario, seed=7)
    with slow_path_held():
        off = run_leg(scenario, seed=7)
    assert on.payload == off.payload
    # The paused leg must never consult the flow cache.
    assert off.counter("perf.fastpath.hits") == 0
    assert off.counter("perf.fastpath.misses") == 0


def test_repeated_sweep_aggregates_flows():
    """Re-probing the same host pairs within a quiescent topology is
    served from the flow cache."""
    obs = Observability()
    with observing(obs):
        internet, _deployment = deployed_internet(seed=7)
        first = ipv4_reachability(internet, sample=30, seed=7).to_dict()
        second = ipv4_reachability(internet, sample=30, seed=7).to_dict()
        fastpath = internet.orchestrator.engine.fastpath
    assert first == second
    # Every probe of the second sweep replayed a cached flow.
    assert fastpath.hits >= 30
    assert fastpath.stats()["packets_aggregated"] >= 60


def _repeating_fault_epoch(seed):
    """:func:`tests.scenarios.fault_epoch` with every phase probing its
    host pairs twice, IPvN and IPv4."""
    internet, deployment = deployed_internet(seed)
    victim = sorted(deployment.states)[1]
    plan = (FaultPlan()
            .crash_node(victim, at=10.0)
            .recover_node(victim, at=200.0))

    def sweep():
        return [internet.reachability(8, sample=FAULT_SAMPLE, seed=seed),
                ipv4_reachability(internet, sample=FAULT_SAMPLE, seed=seed)]

    def workload():
        first, second = sweep(), sweep()
        assert ([report.to_dict() for report in second]
                == [report.to_dict() for report in first])
        return second[0]

    reports = FaultInjector(internet.orchestrator, plan,
                            deployments=[deployment]).play(workload)
    return {"victim": victim,
            "epochs": [report.to_dict() for report in reports]}


def test_fault_epochs_always_take_the_slow_path():
    """The id is historical: fault plans forward on the one path, so a
    plan whose probes repeat is served, with the held leg's answers."""
    on = run_leg(_repeating_fault_epoch, seed=7)
    with slow_path_held():
        off = run_leg(_repeating_fault_epoch, seed=7)
    assert on.counter("perf.fastpath.hits") > 0
    assert off.counter("perf.fastpath.hits") == 0
    assert on.payload == off.payload


def _traced_repeat_run(path):
    """Three rounds of the same IPvN pairs and the same IPv4 sweep,
    traced to *path*: the handle, for its counters."""
    obs = Observability(tracer=Tracer(str(path), context={"seed": 7}))
    with observing(obs):
        internet, deployment = deployed_internet(seed=7)
        hosts = internet.hosts()
        pairs = [(src, dst) for src in hosts[:3] for dst in hosts[-3:]
                 if src != dst]
        for _ in range(3):
            for src, dst in pairs:
                assert deployment.send(src, dst).delivered_to == dst
            ipv4_reachability(internet, sample=10, seed=7)
    obs.close()
    return obs


def test_trace_file_identical_fastpath_serving_vs_held(tmp_path):
    served, held = tmp_path / "served.jsonl", tmp_path / "held.jsonl"
    on = _traced_repeat_run(served)
    with slow_path_held():
        off = _traced_repeat_run(held)
    assert on.metrics_summary()["counters"]["perf.fastpath.hits"] > 0
    assert off.metrics_summary()["counters"].get("perf.fastpath.hits", 0) == 0
    # Byte for byte but for the wall_* timings of convergence events.
    assert (strip_wall_fields(served.read_text().splitlines())
            == strip_wall_fields(held.read_text().splitlines()))
    forwarding = build_report(str(served))["forwarding"]
    assert forwarding == build_report(str(held))["forwarding"]
    assert forwarding["outcomes"]["delivered"] >= 3 * 6


@pytest.mark.slow
def test_report_critical_paths_identical_fastpath_on_vs_off():
    on = traced_fault_report()
    with slow_path_held():
        off = traced_fault_report()
    assert len(on["epochs"]) == len(off["epochs"]) == 2
    for epoch_on, epoch_off in zip(on["epochs"], off["epochs"]):
        assert epoch_on["critical_path"] == epoch_off["critical_path"]
        assert epoch_on["transient"] == epoch_off["transient"]
        assert epoch_on["recovered"] == epoch_off["recovered"]
    # Forwarding distributions come from per-packet spans, and a replay
    # ends its span with the walk's fields, so even these match.
    assert on["forwarding"] == off["forwarding"]
