"""Adoption dynamics: the universal-access virtuous cycle (Section 2.1).

The paper's incentive argument is qualitative; this module gives it a
minimal quantitative form so experiment E8 can show the *shape*:

* With **universal access**, any deployment at all makes the whole
  Internet's user base addressable by IPvN applications, so application
  demand grows as soon as one ISP deploys; growing demand raises the
  revenue an ISP captures by attracting IPvN traffic (assumption A4),
  so more ISPs deploy — "a virtuous cycle between application demand
  and service demand".

* Without universal access (the IP Multicast story), an application
  can only serve customers of deployed ISPs, so demand grows in
  proportion to deployed market share; with deployment near zero,
  demand stays near zero and no ISP ever clears its deployment cost —
  the chicken-and-egg deadlock.

This is a *model*, documented as a substitution in DESIGN.md: the paper
ran no such experiment, but its Section 2.1 narrative is exactly the
two trajectories this model produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.errors import ParameterError


@dataclass
class IspAgent:
    """One ISP in the adoption game."""

    asn: int
    market_share: float
    deploy_cost: float
    deployed: bool = False
    revenue: float = 0.0


@dataclass
class AdoptionTrajectory:
    """Per-round aggregate state of one simulation run."""

    demand: List[float] = field(default_factory=list)
    deployed_share: List[float] = field(default_factory=list)
    deployed_count: List[int] = field(default_factory=list)

    def final_demand(self) -> float:
        return self.demand[-1] if self.demand else 0.0

    def final_share(self) -> float:
        return self.deployed_share[-1] if self.deployed_share else 0.0

    def rounds_to_share(self, target: float) -> Optional[int]:
        """First round at which deployed market share reaches *target*."""
        for round_index, share in enumerate(self.deployed_share):
            if share >= target:
                return round_index
        return None


class AdoptionModel:
    """Discrete-round adoption dynamics with or without universal access.

    Per round:

    1. *Application demand* ``A`` relaxes towards application
       viability.  Under universal access, any deployment at all makes
       every Internet user addressable, so viability is 1 as soon as
       one ISP deploys.  Without it, an application can only serve the
       deployed ISPs' customers, and developers are "reluctant to
       develop applications that could only service a fraction of
       Internet users": viability stays zero until the deployed market
       share clears ``viability_threshold`` and ramps up only beyond
       it — the multicast chicken-and-egg.
    2. Each undeployed ISP estimates per-round *revenue* from
       deploying: under universal access an offering ISP attracts IPvN
       traffic from its own customers plus a split of everyone not yet
       served (revenue flows towards offering ISPs, A4); without UA,
       only its own customers can ever use the service.  The ISP
       deploys when projected revenue over ``horizon`` clears its cost.
    3. Late-adopter pressure: once most of the market offers IPvN and
       demand is real, the remaining ISPs deploy defensively ("at a
       competitive disadvantage without it").
    4. A small seeding probability lets an experimental deployment
       happen regardless (testbeds, niche markets), so the no-UA case
       is not trivially frozen at zero.
    """

    def __init__(self, n_isps: int = 30, universal_access: bool = True,
                 demand_rate: float = 0.25, revenue_coeff: float = 3.0,
                 cost_mean: float = 1.0, horizon: int = 10,
                 viability_threshold: float = 0.5,
                 defense_threshold: float = 0.6,
                 seeding_prob: float = 0.002, seed: int = 0) -> None:
        if n_isps < 1:
            raise ParameterError("need at least one ISP")
        self.universal_access = universal_access
        self.demand_rate = demand_rate
        self.revenue_coeff = revenue_coeff
        self.horizon = horizon
        self.viability_threshold = viability_threshold
        self.defense_threshold = defense_threshold
        self.seeding_prob = seeding_prob
        self.rng = random.Random(seed)
        shares = [self.rng.uniform(0.5, 1.5) for _ in range(n_isps)]
        total = sum(shares)
        self.isps: List[IspAgent] = [
            IspAgent(asn=i + 1, market_share=share / total,
                     deploy_cost=max(0.2, self.rng.gauss(cost_mean, cost_mean / 4)))
            for i, share in enumerate(shares)]
        self.demand = 0.0

    # -- state ------------------------------------------------------------------
    def deployed_share(self) -> float:
        return sum(isp.market_share for isp in self.isps if isp.deployed)

    def deployed_count(self) -> int:
        return sum(1 for isp in self.isps if isp.deployed)

    def addressable_base(self) -> float:
        """User base an IPvN application can serve."""
        share = self.deployed_share()
        if self.universal_access:
            return 1.0 if share > 0.0 else 0.0
        return share

    def application_viability(self) -> float:
        """How attractive building IPvN applications currently is.

        Universal access makes the whole user base addressable the
        moment anyone deploys; without it, developers hold back until
        the addressable fraction clears the viability threshold.
        """
        base = self.addressable_base()
        if self.universal_access:
            return base  # 0 or 1
        if base <= self.viability_threshold:
            return 0.0
        return (base - self.viability_threshold) / (1.0 - self.viability_threshold)

    # -- dynamics -----------------------------------------------------------------
    def step(self) -> None:
        viability = self.application_viability()
        self.demand += self.demand_rate * (viability - self.demand)
        self.demand = min(max(self.demand, 0.0), 1.0)
        share = self.deployed_share()
        offerers = self.deployed_count() + 1
        for isp in self.isps:
            if isp.deployed:
                continue
            if self.universal_access:
                # Revenue flow (A4): an offering ISP attracts IPvN
                # traffic from its own customers plus a split of the
                # customers of every non-offering ISP.
                attractable = isp.market_share + (1.0 - share) / offerers
            else:
                attractable = isp.market_share
            projected = self.revenue_coeff * self.demand * attractable * self.horizon
            defensive = (share >= self.defense_threshold and self.demand >= 0.5)
            if projected >= isp.deploy_cost or defensive:
                isp.deployed = True
            elif self.rng.random() < self.seeding_prob:
                isp.deployed = True  # experimental / niche deployment

    def run(self, rounds: int = 60) -> AdoptionTrajectory:
        trajectory = AdoptionTrajectory()
        for _ in range(rounds):
            self.step()
            trajectory.demand.append(self.demand)
            trajectory.deployed_share.append(self.deployed_share())
            trajectory.deployed_count.append(self.deployed_count())
        return trajectory


def compare_access_models(n_isps: int = 30, rounds: int = 60, seed: int = 0,
                          **kwargs) -> Dict[str, AdoptionTrajectory]:
    """Run the UA and no-UA variants with identical ISP populations."""
    with_ua = AdoptionModel(n_isps=n_isps, universal_access=True, seed=seed,
                            **kwargs).run(rounds)
    without_ua = AdoptionModel(n_isps=n_isps, universal_access=False, seed=seed,
                               **kwargs).run(rounds)
    return {"universal_access": with_ua, "walled_garden": without_ua}
