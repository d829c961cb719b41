"""Topology generators: tiered internets, router-level graphs, paper figures."""

from repro.topogen.figures import FigureTopology, figure1, figure2, figure3, figure4
from repro.topogen.hierarchy import (GeneratedInternet, InternetSpec,
                                     generate_internet)
from repro.topogen.intra import (build_domain_routers, grid_domain, random_domain,
                                 ring_domain, star_domain)
from repro.topogen.scale import (GeneratedScaleInternet, ScaleSpec,
                                 generate_scale_internet, scale_rng,
                                 spec_for_router_budget)

__all__ = ["FigureTopology", "figure1", "figure2", "figure3", "figure4",
           "GeneratedInternet", "InternetSpec", "generate_internet",
           "build_domain_routers", "grid_domain", "random_domain",
           "ring_domain", "star_domain",
           "GeneratedScaleInternet", "ScaleSpec", "generate_scale_internet",
           "scale_rng", "spec_for_router_budget"]
