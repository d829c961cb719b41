"""Shared topology builders and samplers for the experiment suite."""

from __future__ import annotations

import random
from typing import List

from repro.core.orchestrator import Orchestrator
from repro.net.network import Network
from repro.topogen import InternetSpec, generate_internet


def converged_internet(spec: InternetSpec):
    """Generate a tiered internetwork and converge its control planes."""
    generated = generate_internet(spec)
    orch = Orchestrator(generated.network, seed=spec.seed)
    orch.converge()
    return generated, orch


def experiment_spec(seed: int = 0, **overrides) -> InternetSpec:
    """The default mid-size internetwork used by the sweep experiments."""
    params = dict(n_tier1=3, n_tier2=6, n_stub=12, routers_tier1=5,
                  routers_tier2=4, routers_stub=2, hosts_per_stub=2,
                  seed=seed)
    params.update(overrides)
    return InternetSpec(**params)


def sources_for_probes(network: Network, per_domain: int = 1,
                       seed: int = 0) -> List[str]:
    """One-or-more probe sources per domain (hosts preferred, else routers).

    Used by anycast proximity sweeps that want geographic coverage
    rather than traffic realism.
    """
    rng = random.Random(seed)
    sources: List[str] = []
    for asn in sorted(network.domains):
        domain = network.domains[asn]
        candidates = sorted(domain.hosts) or sorted(domain.routers)
        if not candidates:
            continue
        picked = candidates if len(candidates) <= per_domain else rng.sample(
            candidates, per_domain)
        sources.extend(sorted(picked))
    return sources
