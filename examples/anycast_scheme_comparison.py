#!/usr/bin/env python
"""Compare the inter-domain anycast deployment schemes of Section 3.2.

Same internetwork, same adoption pattern, three redirection schemes:

* option 1 — non-aggregatable anycast prefixes propagated in BGP,
* option 2 — addresses rooted in a default ISP (with and without the
  optional bilateral peer advertisements),
* GIA      — home-domain default routes plus bounded member search.

For each we measure (a) redirection proximity: how much farther than
the true closest IPvN router a client's packets travel, (b) the
inter-domain routing state the scheme adds, and (c) who can actually
reach the group when some ISPs refuse to cooperate.

Run:  python examples/anycast_scheme_comparison.py
"""

import statistics

from repro.core.orchestrator import Orchestrator
from repro.anycast import DefaultRootedAnycast, GiaAnycast, GlobalAnycast
from repro.experiments.common import sources_for_probes
from repro.topogen import InternetSpec, generate_internet


def build(seed=5):
    generated = generate_internet(
        InternetSpec(n_tier1=3, n_tier2=6, n_stub=10, hosts_per_stub=1,
                     seed=seed))
    orch = Orchestrator(generated.network, seed=seed)
    orch.converge()
    return generated, orch


def measure(scheme, orch, adopters, sources, advertise=None):
    for asn in adopters:
        for router in sorted(orch.network.domains[asn].routers):
            scheme.add_member(router)
    if advertise:
        for advertiser, neighbor in advertise:
            scheme.advertise_to_neighbor(advertiser, neighbor)
    orch.reconverge()
    scheme.post_converge_install()
    stretches, reached = [], 0
    for source in sources:
        stretch = scheme.proximity_stretch(source)
        if stretch is not None:
            reached += 1
            stretches.append(stretch)
    state = scheme.routing_state_added()
    return {
        "access": reached / len(sources),
        "mean_stretch": statistics.fmean(stretches) if stretches else None,
        "max_stretch": max(stretches) if stretches else None,
        "state_total": sum(state.values()),
        "state_max_per_as": max(state.values()),
    }


def main() -> None:
    print("=== Anycast scheme comparison (Section 3.2) ===\n")
    rows = []

    # Adopters: one tier-1 (the default/home) plus two regionals.
    def adopters_for(generated):
        return [generated.tier1[0], generated.tier2[0], generated.tier2[3]]

    generated, orch = build()
    rows.append(("option1/global", measure(
        GlobalAnycast(orch, "o1"), orch, adopters_for(generated),
        sources_for_probes(orch.network))))

    generated, orch = build()
    rows.append(("option2/default", measure(
        DefaultRootedAnycast(orch, "o2", default_asn=generated.tier1[0]),
        orch, adopters_for(generated), sources_for_probes(orch.network))))

    generated, orch = build()
    scheme = DefaultRootedAnycast(orch, "o2adv", default_asn=generated.tier1[0])
    adopters = adopters_for(generated)
    advertise = []
    for asn in adopters[1:]:
        for neighbor in sorted(orch.network.domains[asn].neighbor_asns()):
            advertise.append((asn, neighbor))
    rows.append(("option2+peering", measure(
        scheme, orch, adopters, sources_for_probes(orch.network),
        advertise=advertise)))

    generated, orch = build()
    rows.append(("GIA (ttl=1)", measure(
        GiaAnycast(orch, "gia", home_asn=generated.tier1[0], search_ttl=1),
        orch, adopters_for(generated), sources_for_probes(orch.network))))

    # Option 1 when a third of the ISPs refuse the policy change.
    generated, orch = build()
    for asn in list(orch.network.domains)[::3]:
        orch.network.domains[asn].propagates_anycast = False
    rows.append(("option1, 1/3 refuse", measure(
        GlobalAnycast(orch, "o1b"), orch, adopters_for(generated),
        sources_for_probes(orch.network))))

    header = (f"{'scheme':>20} {'access':>7} {'stretch':>8} {'worst':>6} "
              f"{'bgp state':>10} {'max/AS':>7}")
    print(header)
    print("-" * len(header))
    for name, row in rows:
        stretch = f"{row['mean_stretch']:.2f}" if row["mean_stretch"] else "-"
        worst = f"{row['max_stretch']:.1f}" if row["max_stretch"] else "-"
        print(f"{name:>20} {row['access']:>7.0%} {stretch:>8} {worst:>6} "
              f"{row['state_total']:>10} {row['state_max_per_as']:>7}")

    print("\nShapes to notice: option 1 finds the closest member (stretch")
    print("~1) but adds a route at every AS and breaks when ISPs refuse the")
    print("policy change; option 2 adds zero state and never breaks, at the")
    print("cost of proximity — which the optional peer advertisements then")
    print("recover; GIA sits in between, needing modified client domains.")


if __name__ == "__main__":
    main()
