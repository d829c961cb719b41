"""Experiment E17: availability of an IPvN deployment under failures.

The self-managing property the paper claims for anycast redirection
("the network, in a completely decentralized manner, 'self-manages'
redirection") implies resilience: when an IPvN router dies, routing
simply steers clients to the next member; when it returns, they steer
back.  This experiment injects a sequence of failure/repair events —
member routers, plain transit routers, and redundant links — and
measures IPvN delivery over a fixed host-pair sample after each event.

Expected shape: delivery stays 100% for every event that leaves the
underlying IPv4 network (and its valley-free route space) connected;
the dead member carries no anycast traffic while down; redirection
state returns to baseline after restoration.  The redirection *shift*
when a client's own target dies is exercised by
``tests/integration/test_failures.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.evolution import EvolvableInternet
from repro.core.metrics import measure_reachability
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import get_obs
from repro.topogen import InternetSpec
from repro.experiments.base import ExperimentResult, Param, register


def _build(seed):
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=3, n_tier2=5, n_stub=8, hosts_per_stub=1,
                     routers_tier1=5, seed=seed), seed=seed)
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    for asn in internet.stub_asns()[:2]:
        deployment.deploy(asn)
    deployment.rebuild()
    return internet, deployment


def _probe_and_victim(internet, deployment):
    """The probe host plus a redundant member to fail.

    In tiered topologies anycast resolution lands on border members, so
    the redundant (internal) victim is generally *not* the probe's
    target; E17's claim is therefore about delivery staying total and
    the dead member handling no traffic, with redirection shift under
    member loss covered by the failure-injection integration tests.
    """
    safe = sorted(_safe_members(internet, deployment))
    if not safe:
        raise AssertionError("topology offers no redundant member to fail")
    return internet.hosts()[0], safe[0]


def _safe_members(internet, deployment):
    """Members whose failure is pure redundancy loss.

    Exclusions: host access routers (failing one physically strands a
    host), border routers (losing an inter-domain link can partition
    the *valley-free* route space even when the physical graph stays
    connected), and intra-domain cut vertices.
    """
    network = internet.network
    access_routers = {network.node(h).access_router
                      for h in internet.hosts()}
    safe = set()
    for member in sorted(deployment.members()):
        node = network.node(member)
        if member in access_routers or getattr(node, "is_border", False):
            continue
        siblings = sorted(network.domains[node.domain_id].routers
                          - {member})
        if len(siblings) < 2:
            continue
        failed = network.crash_node(member)
        connected = all(
            network.shortest_path(siblings[0], other,
                                  intra_domain_only=True) is not None
            for other in siblings[1:])
        network.recover_node(member, links=failed)
        if connected:
            safe.add(member)
    return safe


def _redundant_tier1_link(internet):
    tier1 = internet.tier1_asns()[0]
    routers = sorted(internet.network.domains[tier1].routers)
    for link in internet.network.links.values():
        if link.a in routers and link.b in routers:
            link.fail()
            connected = internet.network.shortest_path(
                link.a, link.b, intra_domain_only=True) is not None
            link.restore()
            if connected:
                return link
    return None


@register("E17", "availability under router/link failure and repair",
          params={"sample": Param("int", 25, "host pairs per measurement")},
          tags=("claim", "resilience"))
def run_resilience(seed: int = 53,
                   params: Optional[Dict[str, object]] = None
                   ) -> ExperimentResult:
    params = dict(params or {})
    internet, deployment = _build(seed)
    pairs = internet.host_pairs(sample=int(params.get("sample", 25)), seed=5)
    probe_host, first_member = _probe_and_victim(internet, deployment)
    events = []

    def measure(label, victim_down=None):
        deployment.rebuild()
        report = measure_reachability(internet.network, deployment.send,
                                      pairs)
        ingresses = {deployment.send(a, b).ingress_router
                     for a, b in pairs[:12]}
        events.append({
            "event": label,
            "delivery": report.delivery_ratio,
            "stretch": report.mean_stretch,
            "redirect": deployment.scheme.resolve(probe_host),
            "victim_carried_traffic": (victim_down in ingresses
                                       if victim_down else None),
        })

    measure("baseline")
    failed = internet.network.crash_node(first_member)
    measure(f"member {first_member} fails", victim_down=first_member)
    internet.network.recover_node(first_member, links=failed)
    measure(f"member {first_member} restored")
    # A plain (non-member) transit router in a multihomed position.
    link = _redundant_tier1_link(internet)
    if link is not None:
        link.fail()
        measure(f"link {link.name} fails")
        link.restore()
        measure(f"link {link.name} restored")
    header = (f"{'event':>28} {'delivery':>9} {'stretch':>8} "
              f"{'probe redirected to':>20}")
    rows = [f"{e['event']:>28} {e['delivery']:>9.0%} "
            f"{e['stretch']:>8.2f} {e['redirect']:>20}" for e in events]
    return ExperimentResult(
        experiment_id="E17",
        title="E17: IPvN availability under failure and repair",
        header=header, rows=rows,
        data={"events": events, "first_member": first_member},
        footer="anycast self-management: delivery never dips; the dead "
               "member carries nothing; state returns on repair",
        seed=seed, params=params)


@register("anycast_failover",
          "fault-injected anycast failover: transient vs recovered delivery",
          params={"n_tier2": Param("int", 4, "tier-2 domains"),
                  "n_stub": Param("int", 6, "stub domains"),
                  "pairs": Param("int", 12, "host pairs per probe"),
                  "crash_at": Param("float", 10.0, "victim crash time"),
                  "recover_at": Param("float", 80.0, "victim recovery time"),
                  "sample_interval": Param("float", 10.0,
                                           "metric sampling interval")},
          tags=("claim", "resilience", "faults"))
def run_anycast_failover(seed: int = 11,
                         params: Optional[Dict[str, object]] = None
                         ) -> ExperimentResult:
    """Crash an anycast member mid-run and measure failover end to end.

    A new-style runner: ``seed`` drives topology generation and the
    host-pair sample; ``params`` may override ``n_tier2``, ``n_stub``,
    ``pairs`` (sample size), ``crash_at``, and ``recover_at``.  Built as
    the observability acceptance scenario — under an enabled
    :class:`~repro.obs.Observability` it exercises the scheduler, SPF,
    BGP, forwarding, vN-Bone rebuild, and fault-injection probes in one
    deterministic run.
    """
    params = dict(params or {})
    spec = InternetSpec(n_tier1=2, n_tier2=int(params.get("n_tier2", 4)),
                        n_stub=int(params.get("n_stub", 6)),
                        hosts_per_stub=1, seed=seed)
    internet = EvolvableInternet.generate(spec, seed=seed)
    obs = get_obs()
    if obs.enabled:
        # Turn gauges/counters into a convergence timeline: one
        # metric.sample event per sim-time tick, driven lazily by the
        # scheduler so the queue still drains to idle.
        interval = float(params.get("sample_interval", 10.0))
        internet.orchestrator.scheduler.attach_sampler(obs.sampler(interval))
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    for asn in internet.stub_asns()[:2]:
        deployment.deploy(asn)
    deployment.rebuild()
    pairs = internet.host_pairs(sample=int(params.get("pairs", 12)),
                                seed=seed)

    def workload():
        return measure_reachability(internet.network, deployment.send, pairs)

    # Prefer a victim whose loss is pure redundancy (not an access
    # router, border, or cut vertex) so the run measures anycast
    # failover, not topology damage.
    members = sorted(deployment.members())
    safe = sorted(_safe_members(internet, deployment))
    victim = safe[0] if safe else members[0]
    plan = (FaultPlan()
            .crash_node(victim, at=float(params.get("crash_at", 10.0)))
            .recover_node(victim, at=float(params.get("recover_at", 80.0))))
    injector = FaultInjector(internet.orchestrator, plan,
                             deployments=[deployment])
    reports = injector.play(workload)
    final = workload()
    header = (f"{'epoch':>6} {'faults':>6} {'transient':>10} "
              f"{'recovered':>10} {'reconv':>8}")
    rows = [f"{report.time:>6g} {len(report.events):>6} "
            f"{(report.transient.delivery_ratio if report.transient else 0):>10.0%} "
            f"{(report.recovered_delivery_ratio or 0):>10.0%} "
            f"{report.reconvergence_time:>8.2f}"
            for report in reports]
    return ExperimentResult(
        experiment_id="anycast_failover",
        title="Anycast failover under member crash and recovery",
        header=header, rows=rows,
        data={"victim": victim,
              "epochs": [report.to_dict() for report in reports],
              "final": final.to_dict()},
        footer=f"final delivery {final.delivery_ratio:.0%} over "
               f"{final.attempted} probes (victim {victim})",
        seed=seed, params=params)
