"""Core: orchestration, deployment scenarios, metrics, incentives, facade."""

from repro.core.closed_loop import CoupledEvolution, CoupledResult, CoupledRound
from repro.core.deployment import (AdoptionStep, DeploymentSchedule,
                                   ScenarioResult, ScenarioRunner)
from repro.core.evolution import EvolvableInternet
from repro.core.incentives import (AdoptionModel, AdoptionTrajectory, IspAgent,
                                   compare_access_models)
from repro.core.metrics import (ReachabilityReport, measure_reachability,
                                outcome_histogram, path_stretch,
                                routing_state_table, summarize,
                                trace_path_cost, traffic_share, vn_coverage,
                                vn_tail_length)
from repro.core.orchestrator import Orchestrator

__all__ = ["CoupledEvolution", "CoupledResult", "CoupledRound",
           "AdoptionStep", "DeploymentSchedule", "ScenarioResult",
           "ScenarioRunner", "EvolvableInternet", "AdoptionModel",
           "AdoptionTrajectory", "IspAgent", "compare_access_models",
           "ReachabilityReport", "measure_reachability",
           "outcome_histogram", "path_stretch", "routing_state_table",
           "summarize", "trace_path_cost", "traffic_share", "vn_coverage",
           "vn_tail_length", "Orchestrator"]
