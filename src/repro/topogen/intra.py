"""Router-level (intra-domain) topology generators.

Each generator adds routers and links for one domain to an existing
:class:`~repro.net.network.Network` and returns the router ids in
creation order.  Styles cover the shapes ISP backbones actually take at
small scale: rings (classic metro), stars (hub-and-spoke), grids
(planned meshes), and random connected graphs (organic growth).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.net.errors import TopologyError
from repro.net.network import Network


def _router_ids(asn: int, count: int, prefix: str) -> List[str]:
    return [f"{prefix}{asn}r{i}" for i in range(count)]


def ring_domain(network: Network, asn: int, count: int, border_count: int = 1,
                cost: float = 1.0, prefix: str = "as") -> List[str]:
    """A ring of *count* routers; the first *border_count* are borders."""
    if count < 1:
        raise TopologyError("a domain needs at least one router")
    ids = _router_ids(asn, count, prefix)
    for index, router_id in enumerate(ids):
        network.add_router(router_id, asn, is_border=index < border_count)
    for index in range(count if count > 2 else count - 1):
        network.add_link(ids[index], ids[(index + 1) % count], cost=cost)
    return ids


def star_domain(network: Network, asn: int, count: int, border_count: int = 1,
                cost: float = 1.0, prefix: str = "as") -> List[str]:
    """A hub router with *count - 1* spokes; borders allocated first."""
    if count < 1:
        raise TopologyError("a domain needs at least one router")
    ids = _router_ids(asn, count, prefix)
    for index, router_id in enumerate(ids):
        network.add_router(router_id, asn, is_border=index < border_count)
    for spoke in ids[1:]:
        network.add_link(ids[0], spoke, cost=cost)
    return ids


def grid_domain(network: Network, asn: int, rows: int, cols: int,
                border_count: int = 1, cost: float = 1.0,
                prefix: str = "as") -> List[str]:
    """A rows x cols grid mesh."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    ids = _router_ids(asn, rows * cols, prefix)
    for index, router_id in enumerate(ids):
        network.add_router(router_id, asn, is_border=index < border_count)
    for r in range(rows):
        for c in range(cols):
            index = r * cols + c
            if c + 1 < cols:
                network.add_link(ids[index], ids[index + 1], cost=cost)
            if r + 1 < rows:
                network.add_link(ids[index], ids[index + cols], cost=cost)
    return ids


def random_domain(network: Network, asn: int, count: int,
                  extra_edges: int = 2, border_count: int = 1,
                  rng: Optional[random.Random] = None,
                  cost_range: Sequence[float] = (1.0, 4.0),
                  prefix: str = "as") -> List[str]:
    """A random connected graph: random spanning tree plus extra chords.

    Link costs are drawn uniformly from *cost_range*.  *rng* is
    required: all randomness must be threaded from the caller's seed
    (there is no implicit per-ASN fallback), so a given rng state
    always yields the same graph.
    """
    if count < 1:
        raise TopologyError("a domain needs at least one router")
    if rng is None:
        raise TopologyError(
            "random_domain needs an explicit seeded rng (e.g. "
            "rng=random.Random(spec.seed * 1000 + asn)); the implicit "
            "per-ASN fallback was removed so all randomness is threaded")
    ids = _router_ids(asn, count, prefix)
    for index, router_id in enumerate(ids):
        network.add_router(router_id, asn, is_border=index < border_count)
    lo, hi = cost_range

    def random_cost() -> float:
        return round(rng.uniform(lo, hi), 2)

    # Random spanning tree: attach each new router to a random earlier one.
    for index in range(1, count):
        anchor = ids[rng.randrange(index)]
        network.add_link(ids[index], anchor, cost=random_cost())
    # Extra chords for path diversity.
    attempts = 0
    added = 0
    while added < extra_edges and attempts < extra_edges * 20 and count > 2:
        attempts += 1
        a, b = rng.sample(ids, 2)
        if network.link_between(a, b) is not None:
            continue
        network.add_link(a, b, cost=random_cost())
        added += 1
    return ids


def build_domain_routers(network: Network, asn: int, count: int, style: str,
                         border_count: int = 1,
                         rng: Optional[random.Random] = None,
                         prefix: str = "as") -> List[str]:
    """Dispatch to a generator by *style* name ("ring", "star", "random").

    The "random" style requires an explicit seeded *rng* (see
    :func:`random_domain`); the deterministic styles ignore it.
    """
    if style == "ring":
        return ring_domain(network, asn, count, border_count=border_count,
                           prefix=prefix)
    if style == "star":
        return star_domain(network, asn, count, border_count=border_count,
                           prefix=prefix)
    if style == "random":
        return random_domain(network, asn, count, border_count=border_count,
                             rng=rng, prefix=prefix)
    raise TopologyError(f"unknown intra-domain style {style!r}")
