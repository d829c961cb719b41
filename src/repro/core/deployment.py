"""Deployment scenario engine: who adopts IPvN, when, and how much.

The paper's story is a *process* — deployment spreads ISP by ISP
(Figure 1), possibly partially within each ISP (assumption A1).  A
:class:`DeploymentSchedule` is an ordered list of adoption steps; the
:class:`ScenarioRunner` applies them to a live
:class:`~repro.vnbone.deployment.VnDeployment`, rebuilding the control
planes after each step and collecting whatever per-step measurements an
experiment asks for.

Schedule generators cover the adoption orders the experiments sweep:
random order, core-first (tier-1 providers lead), edge-first (stubs
lead), and single-ISP flag-day subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.errors import DeploymentError
from repro.net.network import Network
from repro.vnbone.deployment import VnDeployment, adoption_rng


def _apply_step(deployment: VnDeployment, step: "AdoptionStep") -> None:
    """Adopt per *step*, threading the canonical per-AS rng when partial."""
    if step.fraction >= 1.0:
        deployment.deploy(step.asn)
    else:
        deployment.deploy(step.asn, fraction=step.fraction,
                          rng=adoption_rng(step.asn))


@dataclass(frozen=True)
class AdoptionStep:
    """One scheduled adoption: AS *asn* upgrades *fraction* of its routers."""

    asn: int
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise DeploymentError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass
class DeploymentSchedule:
    """An ordered adoption plan."""

    steps: List[AdoptionStep] = field(default_factory=list)

    def __iter__(self):
        return iter(self.steps)

    def asns(self) -> List[int]:
        return [step.asn for step in self.steps]

    @classmethod
    def random_order(cls, network: Network, seed: int = 0,
                     fraction: float = 1.0,
                     limit: Optional[int] = None) -> "DeploymentSchedule":
        """Every domain adopts, in seeded-random order."""
        asns = sorted(network.domains)
        random.Random(seed).shuffle(asns)
        if limit is not None:
            asns = asns[:limit]
        return cls([AdoptionStep(asn=a, fraction=fraction) for a in asns])

    @classmethod
    def core_first(cls, network: Network, fraction: float = 1.0,
                   limit: Optional[int] = None) -> "DeploymentSchedule":
        """Adoption led by the provider core (ascending tier, then ASN)."""
        asns = sorted(network.domains,
                      key=lambda a: (network.domains[a].tier, a))
        if limit is not None:
            asns = asns[:limit]
        return cls([AdoptionStep(asn=a, fraction=fraction) for a in asns])

    @classmethod
    def edge_first(cls, network: Network, fraction: float = 1.0,
                   limit: Optional[int] = None) -> "DeploymentSchedule":
        """Adoption led by the edge (descending tier)."""
        asns = sorted(network.domains,
                      key=lambda a: (-network.domains[a].tier, a))
        if limit is not None:
            asns = asns[:limit]
        return cls([AdoptionStep(asn=a, fraction=fraction) for a in asns])

    @classmethod
    def explicit(cls, asns: Sequence[int],
                 fraction: float = 1.0) -> "DeploymentSchedule":
        return cls([AdoptionStep(asn=a, fraction=fraction) for a in asns])


#: Per-step measurement callback: (step index, deployment) -> row dict.
StepProbe = Callable[[int, VnDeployment], Dict[str, object]]


@dataclass
class ScenarioResult:
    """Per-step measurement rows produced by a scenario run."""

    rows: List[Dict[str, object]] = field(default_factory=list)

    def last(self) -> Dict[str, object]:
        if not self.rows:
            raise DeploymentError("scenario produced no rows")
        return self.rows[-1]


class ScenarioRunner:
    """Applies a schedule to a deployment, measuring after each step."""

    def __init__(self, deployment: VnDeployment) -> None:
        self.deployment = deployment

    def run(self, schedule: DeploymentSchedule, probe: StepProbe,
            measure_baseline: bool = True) -> ScenarioResult:
        """Adopt step by step; call *probe* after each rebuild.

        With ``measure_baseline`` the probe also runs once before any
        adoption (step index 0); adoption steps are indexed from 1.
        """
        result = ScenarioResult()
        if measure_baseline:
            self.deployment.rebuild()
            row = dict(probe(0, self.deployment))
            row.setdefault("step", 0)
            row.setdefault("adopted_asn", None)
            result.rows.append(row)
        for index, step in enumerate(schedule, start=1):
            _apply_step(self.deployment, step)
            self.deployment.rebuild()
            row = dict(probe(index, self.deployment))
            row.setdefault("step", index)
            row.setdefault("adopted_asn", step.asn)
            result.rows.append(row)
        return result
