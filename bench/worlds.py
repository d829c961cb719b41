"""World fixtures: build, converge and deploy through ``repro``'s public
functions, and (in a traced run) set timing wrappers on the live objects.

The wrappers are instance attributes on the objects the program itself
calls through (``orch.bgp.install_routes``, ``deployment.rebuild``, …),
so the program's own internal calls are timed too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.anycast import AnycastScheme, DefaultRootedAnycast, GlobalAnycast
from repro.core.orchestrator import Orchestrator
from repro.topogen.scale import (GeneratedScaleInternet,
                                 generate_scale_internet,
                                 spec_for_router_budget)
from repro.vnbone.deployment import VnDeployment

from bench.spans import NullRecorder

#: Transit ASes that adopt IPvN in the traffic and fault workloads.
ADOPTERS = 8


@dataclass
class World:
    generated: GeneratedScaleInternet
    orch: Orchestrator

    @property
    def hosts(self) -> List[str]:
        return self.generated.hosts


def build_world(rec: NullRecorder, budget: int, topo_seed: int,
                sim_seed: int) -> World:
    """Generate a scale internetwork and run it to convergence."""
    generated = rec.call("topogen.generate", generate_scale_internet,
                         spec_for_router_budget(budget, topo_seed))
    orch = rec.call("core.orchestrator_init", Orchestrator,
                    generated.network, seed=sim_seed)
    if rec.enabled:
        _instrument_orchestrator(rec, orch)
    orch.converge()
    return World(generated, orch)


def _instrument_orchestrator(rec: NullRecorder, orch: Orchestrator) -> None:
    orch.converge = rec.wrap("core.converge", orch.converge)
    orch.reconverge = rec.wrap("core.reconverge", orch.reconverge)
    orch.install_routes = rec.wrap("core.install_routes", orch.install_routes)
    orch.notify_link_change = rec.wrap("core.notify", orch.notify_link_change)
    orch.notify_node_change = rec.wrap("core.notify", orch.notify_node_change)
    scheduler = orch.scheduler
    scheduler.run_until_idle = rec.wrap_drain(scheduler.run_until_idle)
    scheduler.run_until = rec.wrap_drain(scheduler.run_until)
    for igp in orch.igps.values():
        igp.start = rec.wrap("routing.igp_start", igp.start, hot=True,
                             drain="routing.igp_drain")
        igp.install_routes = rec.wrap("routing.igp_install",
                                      igp.install_routes, hot=True)
        igp.refresh = rec.wrap("routing.igp_refresh", igp.refresh, hot=True)
        igp.on_link_change = rec.wrap("routing.igp_link_change",
                                      igp.on_link_change, hot=True)
        igp.advertise_anycast = rec.wrap("routing.igp_advertise",
                                         igp.advertise_anycast, hot=True)
    bgp = orch.bgp
    bgp.start = rec.wrap("bgp.start", bgp.start, drain="bgp.drain")
    bgp.install_routes = rec.wrap("bgp.install", bgp.install_routes)
    bgp.resync_speakers = rec.wrap("bgp.resync", bgp.resync_speakers, hot=True)
    bgp.resync_sessions = rec.wrap("bgp.resync", bgp.resync_sessions, hot=True)
    bgp.originate = rec.wrap("bgp.originate", bgp.originate, hot=True)
    orch.engine.forward = rec.wrap("net.forwarding.forward",
                                   orch.engine.forward, hot=True)


def deploy(rec: NullRecorder, world: World, scheme_kind: str,
           adopters: int) -> VnDeployment:
    """An IPvN deployment whose first *adopters* transit ASes have adopted.

    ``scheme_kind`` is ``"default"`` (option 2, rooted in the first
    transit AS) or ``"global"`` (option 1, BGP-propagated).  Only transit
    ASes can adopt: see README, known gaps.
    """
    orch = world.orch
    scheme: AnycastScheme
    if scheme_kind == "default":
        scheme = rec.call("anycast.init", DefaultRootedAnycast, orch, "vn8",
                          default_asn=world.generated.transit[0])
    else:
        scheme = rec.call("anycast.init", GlobalAnycast, orch, "vn8")
    deployment = rec.call("vnbone.init", VnDeployment, orch, scheme)
    if rec.enabled:
        scheme.add_member = rec.wrap("anycast.join", scheme.add_member,
                                     hot=True)
        scheme.post_converge_install = rec.wrap(
            "anycast.post_install", scheme.post_converge_install, hot=True)
        deployment.deploy = rec.wrap("vnbone.deploy", deployment.deploy)
        deployment.rebuild = rec.wrap("vnbone.rebuild", deployment.rebuild)
        deployment.send = rec.wrap("vnbone.send", deployment.send, hot=True)
        deployment.topology.build = rec.wrap("vnbone.topology_build",
                                             deployment.topology.build)
        deployment.routing.compute = rec.wrap("vnbone.routing_compute",
                                              deployment.routing.compute)
    for asn in world.generated.transit[:adopters]:
        deployment.deploy(asn)
    deployment.rebuild()
    return deployment
