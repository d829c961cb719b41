"""Test-local workloads the fleet tests sweep.

Importable by module name (``tests.fleet._workloads``) so fleet
matrices can list it under ``imports`` and worker processes — which do
not inherit the parent's registry under the spawn start method — can
re-register it.  Registration is guarded, because imports are cached
per process but the registry check raises on duplicates.
"""

from repro.experiments.base import (ExperimentResult, Param, _REGISTRY,
                                    register)

PROBE_ID = "fleet_probe"
CRASH_ID = "fleet_crash"


def _probe(seed: int = 0, params=None) -> ExperimentResult:
    params = params or {}
    scale = params.get("scale", 2)
    offset = params.get("offset", 0)
    value = (seed * scale + offset) % 9973
    return ExperimentResult(
        experiment_id=PROBE_ID, title="fleet probe",
        header="seed scale offset value",
        rows=[f"{seed} {scale} {offset} {value}"],
        data={"seed": seed, "scale": scale, "offset": offset,
              "value": value},
        seed=seed, params=dict(params))


def _crash(seed: int = 0, params=None) -> ExperimentResult:
    raise RuntimeError(f"injected cell failure (seed={seed})")


if PROBE_ID not in _REGISTRY:
    register(PROBE_ID, "cheap seed-dependent probe (fleet tests)",
             params={"scale": Param("int", 2, "multiplier"),
                     "offset": Param("int", 0, "additive term")},
             tags=("test",))(_probe)

if CRASH_ID not in _REGISTRY:
    # Unconstrained params, so it can share a matrix's axes with the probe.
    register(CRASH_ID, "always-crashing workload (fleet tests)",
             params=None, tags=("test",))(_crash)
