"""Closed-loop evolution: incentives drive deployment, mechanisms
deliver the experience the incentives assumed.

The adoption model (:mod:`repro.core.incentives`) reasons about
universal access abstractly; the network simulator realizes it
mechanically.  :class:`CoupledEvolution` wires them together:

* each ISP agent in the adoption model is bound to a domain of a real
  internetwork (largest market shares to the provider core);
* every round, agents that decided to deploy actually deploy —
  anycast membership, vN-Bone construction, routing;
* user experience is then *measured* on the data plane (delivery ratio
  and stretch over sampled host pairs), confirming that the premise the
  incentive argument rests on (universal access from the first adopter)
  holds mechanically at every round.

This is the experiment the paper could only argue for: the virtuous
cycle running end to end, with the mechanism layer underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.evolution import EvolvableInternet
from repro.core.incentives import AdoptionModel
from repro.core.metrics import measure_reachability
from repro.net.errors import DeploymentError


@dataclass
class CoupledRound:
    """Measured state after one adoption round."""

    round_index: int
    deployed_asns: List[int]
    deployed_share: float
    demand: float
    delivery_ratio: Optional[float]
    mean_stretch: Optional[float]


@dataclass
class CoupledResult:
    rounds: List[CoupledRound] = field(default_factory=list)

    def final(self) -> CoupledRound:
        if not self.rounds:
            raise DeploymentError("coupled run produced no rounds")
        return self.rounds[-1]


class CoupledEvolution:
    """Runs an adoption model against a live internetwork."""

    def __init__(self, internet: EvolvableInternet, model: AdoptionModel,
                 version: int = 8, sample_pairs: int = 30,
                 measure_every: int = 1, seed: int = 0) -> None:
        if measure_every < 1:
            raise DeploymentError("measure_every must be >= 1")
        self.internet = internet
        self.model = model
        self.version = version
        self.sample_pairs = sample_pairs
        self.measure_every = measure_every
        self.seed = seed
        self._asn_of_agent = self._bind_agents()
        #: Created lazily: option 2 defines the default ISP as "the
        #: first ISP to initiate deployment of IPvN", which only the
        #: adoption dynamics can tell us.
        self.deployment = None
        self._deployed_agents: set = set()

    def _bind_agents(self) -> Dict[int, int]:
        """Map agents to domains: biggest shares to the provider core.

        Domains sort core-first (tier, then ASN); agents sort by
        descending market share.  Extra agents (beyond the domain
        count) wrap around — they model ISPs outside the simulated
        region and trigger no mechanical deployment twice.
        """
        domains = sorted(self.internet.network.domains,
                         key=lambda a: (self.internet.network.domains[a].tier, a))
        agents = sorted(range(len(self.model.isps)),
                        key=lambda i: -self.model.isps[i].market_share)
        return {agent: domains[index % len(domains)]
                for index, agent in enumerate(agents)}

    # -- the loop -----------------------------------------------------------------
    def run(self, rounds: int) -> CoupledResult:
        result = CoupledResult()
        pairs = self.internet.host_pairs(sample=self.sample_pairs,
                                         seed=self.seed)
        for round_index in range(1, rounds + 1):
            self.model.step()
            changed = self._apply_new_deployments()
            if changed:
                self.deployment.rebuild()
            delivery = stretch = None
            deployed_asns: List[int] = []
            if self.deployment is not None:
                deployed_asns = sorted(self.deployment.adopting_asns())
                if (round_index % self.measure_every == 0
                        and self.deployment.members()):
                    if self.deployment.needs_rebuild:
                        self.deployment.rebuild()
                    report = measure_reachability(
                        self.internet.network, self.deployment.send, pairs)
                    delivery = report.delivery_ratio
                    stretch = report.mean_stretch
            result.rounds.append(CoupledRound(
                round_index=round_index,
                deployed_asns=deployed_asns,
                deployed_share=self.model.deployed_share(),
                demand=self.model.demand,
                delivery_ratio=delivery,
                mean_stretch=stretch))
        return result

    def _apply_new_deployments(self) -> bool:
        changed = False
        for index, agent in enumerate(self.model.isps):
            if not agent.deployed or index in self._deployed_agents:
                continue
            self._deployed_agents.add(index)
            asn = self._asn_of_agent[index]
            if self.deployment is None:
                # The first mover becomes the default ISP (option 2).
                self.deployment = self.internet.new_deployment(
                    version=self.version, scheme="default", default_asn=asn)
            if self.internet.network.domains[asn].deploys(self.version):
                continue  # another agent bound to this domain deployed it
            self.deployment.deploy(asn)
            changed = True
        return changed
