"""Four seeded end-to-end scenarios the equivalence suites run.

Each builds a small internetwork from scratch — initial convergence, a
staged reachability sweep, a fault epoch, a multicast fanout — and
returns a JSON-safe payload that is a pure function of the seed.  Two
runs of one scenario under different held modes (see
:mod:`tests.oracles`) must produce the same payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.analyze import build_report
from repro.core.evolution import EvolvableInternet
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability, Tracer, observing
from repro.obs.serialize import json_safe
from repro.topogen.hierarchy import InternetSpec
from repro.vnbone.deployment import VnDeployment
from repro.vnbone.multicast import enable_multicast

#: A scenario builds its world from scratch; its payload must be a pure
#: function of the seed.
Scenario = Callable[[int], object]

SWEEP_SAMPLE = 30
SWEEP_ADOPTION_STAGES = 2
FAULT_SAMPLE = 20
MULTICAST_RECEIVERS = 4


def deployed_internet(seed: int) -> Tuple[EvolvableInternet, VnDeployment]:
    """An internet with an IPv8 deployment in the first tier-1 and the
    first two stub domains (the shared scenario fixture)."""
    spec = InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=seed)
    internet = EvolvableInternet.generate(spec, seed=seed)
    tier1 = internet.tier1_asns()
    stubs = internet.stub_asns()
    deployment = internet.new_deployment(version=8, scheme="default",
                                         default_asn=tier1[0])
    deployment.deploy(tier1[0])
    for asn in stubs[:2]:
        deployment.deploy(asn)
    deployment.rebuild()
    return internet, deployment


def converge(seed: int) -> object:
    """Build + converge + deploy + rebuild; payload is the topology
    summary, the adopter map, and control-plane message totals."""
    internet, _deployment = deployed_internet(seed)
    return {"describe": internet.describe(),
            "message_totals": internet.orchestrator.message_totals()}


def reachability_sweep(seed: int) -> object:
    """Staged adoption sweep, measuring IPv8 reachability per stage."""
    internet, deployment = deployed_internet(seed)
    stages = [internet.reachability(8, sample=SWEEP_SAMPLE,
                                    seed=seed).to_dict()]
    remaining = [asn for asn in internet.stub_asns()
                 if asn not in deployment.adopting_asns()]
    for asn in remaining[:SWEEP_ADOPTION_STAGES]:
        deployment.deploy(asn)
        deployment.rebuild()
        stages.append(internet.reachability(8, sample=SWEEP_SAMPLE,
                                            seed=seed).to_dict())
    return {"stages": stages,
            "ipv4": internet.ipv4_reachability(sample=SWEEP_SAMPLE,
                                               seed=seed).to_dict()}


def fault_epoch(seed: int) -> object:
    """Crash/recover a vN-Bone member under a reachability workload."""
    internet, deployment = deployed_internet(seed)
    members = sorted(deployment.states)
    victim = members[1] if len(members) > 1 else members[0]
    plan = (FaultPlan()
            .crash_node(victim, at=10.0)
            .recover_node(victim, at=200.0))
    injector = FaultInjector(internet.orchestrator, plan,
                             deployments=[deployment])
    reports = injector.play(
        workload=lambda: internet.reachability(8, sample=FAULT_SAMPLE,
                                               seed=seed))
    return {"victim": victim,
            "epochs": [report.to_dict() for report in reports]}


def multicast_fanout(seed: int) -> object:
    """One group, a handful of stub hosts joined, one source send."""
    internet, deployment = deployed_internet(seed)
    service = enable_multicast(deployment)
    group = service.create_group()
    hosts = internet.hosts()
    receivers = hosts[1:1 + MULTICAST_RECEIVERS]
    for host_id in receivers:
        service.join(group, host_id)
    service.rebuild()
    trace = service.send(hosts[0], group)
    return {"source": hosts[0], "receivers": receivers,
            "trace": trace.to_dict()}


#: Ordered (name, scenario) list for ``pytest.mark.parametrize``.
SCENARIOS: List[Tuple[str, Scenario]] = [
    ("converge", converge),
    ("reachability_sweep", reachability_sweep),
    ("fault_epoch", fault_epoch),
    ("multicast_fanout", multicast_fanout),
]
SCENARIO_IDS = [name for name, _ in SCENARIOS]


@dataclass
class Leg:
    """One execution of one scenario."""

    payload: object
    counters: Dict[str, int]

    def counter(self, name: str) -> int:
        return int(self.counters.get(name, 0))


def canonical(payload: object) -> object:
    """Round-trip through sorted JSON so leg comparison is bit-exact."""
    return json.loads(json.dumps(json_safe(payload), sort_keys=True))


def run_leg(scenario: Scenario, seed: int) -> Leg:
    """Run one scenario under a fresh observability handle."""
    obs = Observability()
    with observing(obs):
        payload = scenario(seed)
    return Leg(payload=canonical(payload),
               counters=dict(obs.metrics_summary()["counters"]))


def traced_fault_report(seed: int = 7) -> Dict[str, object]:
    """The ``repro.report/v1`` document of a traced :func:`fault_epoch`."""
    obs = Observability(tracer=Tracer(context={"seed": seed}))
    with observing(obs):
        fault_epoch(seed)
    obs.close()
    return build_report(obs.tracer.events())
