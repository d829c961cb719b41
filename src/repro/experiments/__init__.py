"""The experiment suite: every reproduced figure and claim, runnable.

Importing this package populates the workload-spec registry; use::

    from repro.experiments import all_specs, available, describe, run

    print(available())          # ['E10', 'E11', ..., 'F1', ...]
    result = run("F1")
    print(result.table())

Every entry is a declarative :class:`WorkloadSpec` — id, runner, typed
param schema with defaults, tags, artifact schema — so the CLI, the
benchmark suite, and the :mod:`repro.fleet` sweep engine all enumerate
and validate workloads through this one surface.
"""

from repro.experiments.base import (EXPERIMENT_SCHEMA, ExperimentResult,
                                    Param, WorkloadSpec,
                                    all_specs, available, describe,
                                    format_error, get_spec, register, run)

# Importing the modules registers their experiments.
from repro.experiments import figures  # noqa: F401  (F1-F4)
from repro.experiments import anycast_claims  # noqa: F401  (E5, E6)
from repro.experiments import redirection_claims  # noqa: F401  (E7)
from repro.experiments import incentive_claims  # noqa: F401  (E8, E14)
from repro.experiments import vnbone_claims  # noqa: F401  (E9a, E9b, E15)
from repro.experiments import access_claims  # noqa: F401  (E10, E13a, E13b)
from repro.experiments import igp_claims  # noqa: F401  (E11)
from repro.experiments import service_claims  # noqa: F401  (E12a/b, E16)
from repro.experiments import resilience_claims  # noqa: F401  (E17)
from repro.experiments import measurement_claims  # noqa: F401  (rtt_catchment)

__all__ = ["EXPERIMENT_SCHEMA", "ExperimentResult", "Param",
           "WorkloadSpec", "all_specs", "available", "describe",
           "format_error", "get_spec", "register", "run"]
