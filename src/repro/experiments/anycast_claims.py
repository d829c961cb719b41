"""Experiments E5-E6: the Section 3.2 scalability and proximity claims."""

from __future__ import annotations

import statistics

from typing import Dict, Optional

from repro.anycast import DefaultRootedAnycast, GiaAnycast, GlobalAnycast
from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import (converged_internet, experiment_spec,
                                      sources_for_probes)

E5_GROUP_COUNTS = [1, 2, 4, 8, 16]
E6_FRACTIONS = [0.1, 0.25, 0.5, 0.75, 1.0]


def _deploy_groups(scheme_factory, orch, generated, count):
    """Create *count* one-domain-per-tier groups and converge once."""
    schemes = []
    adopter_pool = generated.tier1 + generated.tier2
    for index in range(count):
        scheme = scheme_factory(index)
        adopter = adopter_pool[index % len(adopter_pool)]
        for router in sorted(orch.network.domains[adopter].routers):
            scheme.add_member(router)
        schemes.append(scheme)
    orch.reconverge()
    for scheme in schemes:
        scheme.post_converge_install()
    totals = {asn: 0 for asn in orch.network.domains}
    for scheme in schemes:
        for asn, added in scheme.routing_state_added().items():
            totals[asn] += added
    return {"total": sum(totals.values()), "max_per_as": max(totals.values())}


@register("E5", "routing-state scaling: option 1 vs option 2 vs GIA",
          params={}, tags=("claim", "anycast"))
def run_routing_state(seed: int = 3,
                      params: Optional[Dict[str, object]] = None
                      ) -> ExperimentResult:
    data = []
    for count in E5_GROUP_COUNTS:
        generated, orch = converged_internet(experiment_spec(seed=seed))
        option1 = _deploy_groups(
            lambda i: GlobalAnycast(orch, f"g{i}"), orch, generated, count)

        generated2, orch2 = converged_internet(experiment_spec(seed=seed))
        option2 = _deploy_groups(
            lambda i: DefaultRootedAnycast(
                orch2, f"d{i}",
                default_asn=generated2.tier1[i % len(generated2.tier1)]),
            orch2, generated2, count)

        generated3, orch3 = converged_internet(experiment_spec(seed=seed))
        gia = _deploy_groups(
            lambda i: GiaAnycast(
                orch3, f"a{i}", group_index=i,
                home_asn=generated3.tier1[i % len(generated3.tier1)]),
            orch3, generated3, count)
        data.append({"groups": count, "option1": option1,
                     "option2": option2, "gia": gia})
    n_domains = experiment_spec().total_domains()
    header = (f"{'groups':>6} | {'opt1 total':>10} {'opt1 max/AS':>11} | "
              f"{'opt2 total':>10} {'opt2 max/AS':>11} | "
              f"{'GIA total':>9} {'GIA max/AS':>10}")
    rows = [f"{r['groups']:>6} | {r['option1']['total']:>10} "
            f"{r['option1']['max_per_as']:>11} | {r['option2']['total']:>10} "
            f"{r['option2']['max_per_as']:>11} | {r['gia']['total']:>9} "
            f"{r['gia']['max_per_as']:>10}" for r in data]
    return ExperimentResult(
        experiment_id="E5",
        title=(f"E5: added inter-domain routing state vs concurrent "
               f"deployments ({n_domains} ASes)"),
        header=header, rows=rows, data=data,
        footer="paper: opt1 state ~ groups x ASes; opt2 adds none; GIA "
               "stays bounded",
        seed=seed, params=dict(params or {}))


def _adopters_for(generated, fraction):
    pool = generated.tier1 + generated.tier2 + generated.stubs
    count = max(1, round(fraction * len(pool)))
    return pool[:count]  # deterministic: core first


def _measure_proximity(scheme, orch, adopters, advertise):
    for asn in adopters:
        for router in sorted(orch.network.domains[asn].routers):
            scheme.add_member(router)
    if advertise and hasattr(scheme, "advertise_to_neighbor"):
        for asn in adopters:
            if asn == scheme.default_asn:
                continue
            for neighbor in sorted(orch.network.domains[asn].neighbor_asns()):
                scheme.advertise_to_neighbor(asn, neighbor)
    orch.reconverge()
    sources = sources_for_probes(orch.network, seed=1)
    stretches = [s for s in (scheme.proximity_stretch(src) for src in sources)
                 if s is not None]
    default_share = (scheme.default_share(sources)
                     if isinstance(scheme, DefaultRootedAnycast) else None)
    return {"mean": statistics.fmean(stretches), "max": max(stretches),
            "default_share": default_share}


@register("E6", "anycast proximity stretch vs deployment fraction",
          params={}, tags=("claim", "anycast"))
def run_proximity(seed: int = 9,
                  params: Optional[Dict[str, object]] = None
                  ) -> ExperimentResult:
    data = []
    for fraction in E6_FRACTIONS:
        generated, orch = converged_internet(experiment_spec(seed=seed))
        adopters = _adopters_for(generated, fraction)
        opt1 = _measure_proximity(GlobalAnycast(orch, "o1"), orch, adopters,
                                  False)

        generated2, orch2 = converged_internet(experiment_spec(seed=seed))
        opt2 = _measure_proximity(
            DefaultRootedAnycast(orch2, "o2", default_asn=generated2.tier1[0]),
            orch2, _adopters_for(generated2, fraction), False)

        generated3, orch3 = converged_internet(experiment_spec(seed=seed))
        opt2adv = _measure_proximity(
            DefaultRootedAnycast(orch3, "o2a",
                                 default_asn=generated3.tier1[0]),
            orch3, _adopters_for(generated3, fraction), True)
        data.append({"fraction": fraction, "opt1": opt1, "opt2": opt2,
                     "opt2adv": opt2adv})
    header = (f"{'deployed':>8} | {'opt1 mean':>9} | {'opt2 mean':>9} "
              f"{'opt2 max':>8} {'dflt share':>10} | {'opt2+adv mean':>13} "
              f"{'dflt share':>10}")
    rows = [f"{r['fraction']:>8.0%} | {r['opt1']['mean']:>9.2f} | "
            f"{r['opt2']['mean']:>9.2f} {r['opt2']['max']:>8.1f} "
            f"{r['opt2']['default_share']:>10.0%} | "
            f"{r['opt2adv']['mean']:>13.2f} "
            f"{r['opt2adv']['default_share']:>10.0%}" for r in data]
    return ExperimentResult(
        experiment_id="E6",
        title="E6: anycast proximity stretch vs deployment fraction",
        header=header, rows=rows, data=data,
        footer="paper: opt2 imperfect proximity, improving with spread and "
               "peer advertising; default ISP over-weighted early",
        seed=seed, params=dict(params or {}))
