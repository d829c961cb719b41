"""Experiments F1-F4: the paper's figure walk-throughs, regenerated.

The figure topologies are fixed by the paper (no randomness), so the
uniform ``seed`` keyword does not perturb them; it is accepted, stamped
into the result, and exists so the registry presents one runner shape
to the CLI and the fleet engine.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.metrics import vn_coverage, vn_tail_length
from repro.core.orchestrator import Orchestrator
from repro.anycast import DefaultRootedAnycast, GlobalAnycast
from repro.topogen import figure1, figure2, figure3, figure4
from repro.vnbone import EgressPolicy, VnDeployment, proxies_for_domain
from repro.experiments.base import ExperimentResult, register


@register("F1", "Figure 1: seamless spread of deployment via anycast",
          params={}, tags=("figure",))
def run_figure1(seed: int = 0,
                params: Optional[Dict[str, object]] = None) -> ExperimentResult:
    fig = figure1()
    orch = Orchestrator(fig.network)
    orch.converge()
    scheme = GlobalAnycast(orch, "ipv8")
    address_at_start = scheme.address
    data = []
    for stage, name in enumerate(["X", "Y", "Z"], start=1):
        for router in sorted(fig.network.domains[fig.asn(name)].routers):
            scheme.add_member(router)
        orch.reconverge()
        trace = scheme.probe("client_c")
        member = trace.delivered_to
        data.append({
            "stage": stage,
            "adopter": name,
            "redirected_to_domain": fig.network.domains[
                fig.network.node(member).domain_id].name,
            "cost": scheme.path_cost(trace),
            "client_reconfigured": scheme.address != address_at_start,
        })
    header = (f"{'stage':>5} {'adopter':>8} {'C redirected to':>16} "
              f"{'path cost':>10} {'client reconfig?':>17}")
    rows = [f"{r['stage']:>5} {r['adopter']:>8} "
            f"{r['redirected_to_domain']:>16} {r['cost']:>10.1f} "
            f"{str(r['client_reconfigured']):>17}" for r in data]
    return ExperimentResult(
        experiment_id="F1",
        title="Figure 1: seamless spread of IPv8 deployment",
        header=header, rows=rows, data=data,
        footer="paper: X -> Y -> Z, non-increasing cost, no reconfiguration",
        seed=seed, params=dict(params or {}))


@register("F2", "Figure 2: default-ISP anycast, before/after Q-Y peering",
          params={}, tags=("figure",))
def run_figure2(seed: int = 0,
                params: Optional[Dict[str, object]] = None) -> ExperimentResult:
    fig = figure2()
    orch = Orchestrator(fig.network)
    orch.converge()
    rib_before = orch.bgp.total_rib_size()
    scheme = DefaultRootedAnycast(orch, "ipvN", default_asn=fig.asn("D"))
    scheme.add_member("d1")
    scheme.add_member("q1")
    orch.reconverge()
    hosts = ["host_x", "host_y", "host_z"]

    def panel():
        return {h: fig.network.domains[
            fig.network.node(scheme.resolve(h)).domain_id].name
            for h in hosts}

    before = panel()
    share_before = scheme.default_share(hosts)
    rib_after_join = orch.bgp.total_rib_size()
    scheme.advertise_to_neighbor(fig.asn("Q"), fig.asn("Y"))
    orch.reconverge()
    after = panel()
    share_after = scheme.default_share(hosts)
    data = {"before": before, "after": after,
            "bgp_added_by_joining": rib_after_join - rib_before,
            "share_before": share_before, "share_after": share_after}
    header = f"{'source':>8} {'before peering':>15} {'after peering':>14}"
    rows = [f"{host:>8} {data['before'][host]:>15} {data['after'][host]:>14}"
            for host in sorted(data["before"])]
    return ExperimentResult(
        experiment_id="F2",
        title="Figure 2: default-ISP anycast, before/after Q-Y peering",
        header=header, rows=rows, data=data,
        footer=(f"routes added to global BGP by adoption: "
                f"{data['bgp_added_by_joining']}; default-ISP traffic "
                f"share {data['share_before']:.0%} -> "
                f"{data['share_after']:.0%} "
                "(paper: X,Y->D and Z->Q; then Y->Q)"),
        seed=seed, params=dict(params or {}))


FIG3_POLICIES = [EgressPolicy.EXIT_IMMEDIATELY, EgressPolicy.BGP_INFORMED,
                 EgressPolicy.HOST_ADVERTISED]


@register("F3", "Figure 3: egress selection with BGPv(N-1) import",
          params={}, tags=("figure",))
def run_figure3(seed: int = 0,
                params: Optional[Dict[str, object]] = None) -> ExperimentResult:
    data = []
    for policy in FIG3_POLICIES:
        fig = figure3()
        orch = Orchestrator(fig.network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "ipvN", default_asn=fig.asn("M"))
        deployment = VnDeployment(orch, scheme, version=8,
                                  egress_policy=policy)
        deployment.deploy(fig.asn("M"))
        deployment.deploy(fig.asn("O"))
        deployment.rebuild()
        if policy is EgressPolicy.HOST_ADVERTISED:
            deployment.register_host("client_c")
            deployment.rebuild()
        trace = deployment.send("host_m", "client_c")
        exit_domain = (fig.network.domains[
            fig.network.node(trace.egress_router).domain_id].name
            if trace.egress_router else "-")
        data.append({
            "policy": policy.value,
            "delivered": trace.delivered,
            "egress_domain": exit_domain,
            "tail": vn_tail_length(fig.network, trace),
            "coverage": vn_coverage(trace),
        })
    header = (f"{'egress policy':>17} {'delivered':>10} {'exit domain':>12} "
              f"{'v(N-1) tail':>12} {'vN coverage':>12}")
    rows = []
    for r in data:
        coverage = f"{r['coverage']:.0%}" if r["coverage"] is not None else "-"
        rows.append(f"{r['policy']:>17} {str(r['delivered']):>10} "
                    f"{r['egress_domain']:>12} {r['tail']!s:>12} "
                    f"{coverage:>12}")
    return ExperimentResult(
        experiment_id="F3",
        title="Figure 3: egress selection for a non-IPvN destination",
        header=header, rows=rows, data=data,
        footer="paper: BGPv(N-1) import moves the exit from M to O, "
               "shortening the legacy tail",
        seed=seed, params=dict(params or {}))


def _figure4_deployment(policy: EgressPolicy, threshold: int):
    fig = figure4()
    orch = Orchestrator(fig.network)
    orch.converge()
    scheme = DefaultRootedAnycast(orch, "ipvN", default_asn=fig.asn("A"))
    deployment = VnDeployment(orch, scheme, version=8, egress_policy=policy,
                              proxy_threshold=threshold)
    for name in ("A", "B", "C"):
        deployment.deploy(fig.asn(name))
    deployment.rebuild()
    return fig, deployment


@register("F4", "Figure 4: advertising-by-proxy",
          params={}, tags=("figure",))
def run_figure4(seed: int = 0,
                params: Optional[Dict[str, object]] = None) -> ExperimentResult:
    data = []
    configs = [("no proxy", EgressPolicy.EXIT_IMMEDIATELY, 0),
               ("proxy, thr=1", EgressPolicy.PROXY, 1),
               ("proxy, thr=2", EgressPolicy.PROXY, 2)]
    for label, policy, threshold in configs:
        fig, deployment = _figure4_deployment(policy, threshold)
        if policy is EgressPolicy.PROXY:
            proxies = proxies_for_domain(
                fig.network, deployment.orchestrator.bgp, deployment.version,
                fig.asn("Z"), deployment.members(),
                deployment.adopting_asns(), deployment.proxy_threshold)
            proxy_domains = sorted({fig.network.domains[
                fig.network.node(p).domain_id].name for p in proxies})
        else:
            proxy_domains = []
        trace = deployment.send("host_a", "host_z")
        names = [fig.network.domains[asn].name
                 for asn in trace.domain_path()]
        exit_domain = fig.network.domains[
            fig.network.node(trace.egress_router).domain_id].name
        data.append({
            "config": label,
            "proxies": "+".join(proxy_domains) if proxy_domains else "-",
            "as_path": "->".join(names),
            "exit": exit_domain,
            "tail": vn_tail_length(fig.network, trace),
            "delivered": trace.delivered,
        })
    header = (f"{'config':>13} {'proxies of Z':>13} {'AS-level path':>18} "
              f"{'exit':>5} {'tail':>5}")
    rows = [f"{r['config']:>13} {r['proxies']:>13} {r['as_path']:>18} "
            f"{r['exit']:>5} {r['tail']:>5}" for r in data]
    return ExperimentResult(
        experiment_id="F4",
        title="Figure 4: path A -> Z with and without advertising-by-proxy",
        header=header, rows=rows, data=data,
        footer="paper: proxying shifts the path from A->M->N->Z onto the "
               "vN-Bone via B/C",
        seed=seed, params=dict(params or {}))
