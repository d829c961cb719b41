"""The workload-spec registry, result type, and run API.

Every reproduced figure and claim is a declarative
:class:`WorkloadSpec` registered here: an id, a one-line description, a
runner with the uniform ``runner(*, seed, params)`` signature, a typed
parameter schema with defaults, a set of tags, and the schema tag of
the artifact the runner emits.  The whole evaluation is therefore
enumerable and validatable through one surface::

    from repro.experiments import all_specs, run

    for spec in all_specs():
        result = run(spec.workload_id)

The same surface drives the shell (``python -m repro experiment F1``),
the shape tests (``tests/experiments``), and the multiprocess sweep
engine (:mod:`repro.fleet`), which fans a parameter matrix over these
specs across worker processes.

Runners have exactly one signature shape: keyword-accessible ``seed``
and ``params`` (each may carry a runner-chosen default).  The zero-arg
runner style — and the ``DeprecationWarning`` shim that tolerated it —
is gone; :func:`register` rejects runners that cannot accept both
keywords.

:func:`run` also drives the observability layer: pass an
:class:`~repro.obs.Observability` and the runner executes under
:func:`~repro.obs.observing`, so every scheduler/IGP/BGP/forwarding
object the experiment constructs binds to it.  The returned
:class:`ExperimentResult` then carries ``metrics`` (the registry
snapshot) and ``trace_path``, and serializes to the versioned
``repro.experiment/v1`` document (its shape is
``repro.schema.SCHEMAS["repro.experiment/v1"]``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Tuple)

from repro.net.errors import ReproError, WorkloadError
from repro.obs import Observability, observing
from repro.obs.serialize import json_safe

#: Schema tag stamped into :meth:`ExperimentResult.to_dict` documents.
EXPERIMENT_SCHEMA = "repro.experiment/v1"

#: Keywords every registered runner must accept.
_REQUIRED_KEYWORDS = ("seed", "params")

#: Parameter kinds a :class:`Param` may declare, with the runtime types
#: each accepts.  ``float`` accepts ints (JSON has one number type);
#: ``bool`` is never accepted where a number is declared.
PARAM_KINDS: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class Param:
    """One declared workload parameter: kind, default, description."""

    kind: str
    default: object
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise WorkloadError(
                f"unknown param kind {self.kind!r}; "
                f"expected one of {sorted(PARAM_KINDS)}")
        if not self.accepts(self.default):
            raise WorkloadError(
                f"param default {self.default!r} is not a {self.kind}")

    def accepts(self, value: object) -> bool:
        accepted = PARAM_KINDS[self.kind]
        if bool not in accepted and isinstance(value, bool):
            return False
        return isinstance(value, accepted)


@dataclass
class ExperimentResult:
    """One experiment's regenerated table plus its raw data.

    ``metrics`` and ``trace_path`` are populated by :func:`run` when the
    experiment executes under an enabled
    :class:`~repro.obs.Observability`; ``seed`` and ``params`` echo what
    the runner was invoked with.
    """

    experiment_id: str
    title: str
    header: str
    rows: List[str]
    #: Structured per-row data, for assertions and further analysis.
    data: object
    footer: str = ""
    seed: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict)
    #: Metrics-registry snapshot from the run's Observability (if any).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Where the structured JSONL trace was written (if tracing was on).
    trace_path: Optional[str] = None

    def table(self) -> str:
        lines = [f"== {self.title} ==", self.header, "-" * len(self.header)]
        lines.extend(self.rows)
        if self.footer:
            lines.append(self.footer)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Canonical ``repro.experiment/v1`` form (shared serialization
        contract; its shape is declared in :mod:`repro.schema`)."""
        return {"schema": EXPERIMENT_SCHEMA,
                "experiment_id": self.experiment_id, "title": self.title,
                "header": self.header, "rows": list(self.rows),
                "data": json_safe(self.data), "footer": self.footer,
                "seed": self.seed, "params": json_safe(self.params),
                "metrics": json_safe(self.metrics),
                "trace_path": self.trace_path}


_Runner = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry: a declarative, enumerable workload description.

    ``params`` is the typed parameter schema — every knob the runner
    understands, with its default.  ``None`` means the workload is
    unconstrained (scratch/test runners); a mapping (possibly empty)
    means :meth:`validate_params` rejects unknown keys and wrong types.
    ``artifact_schema`` names the document schema :meth:`call`'s result
    serializes to, so consumers know what to validate against.
    """

    workload_id: str
    description: str
    runner: _Runner
    params: Optional[Mapping[str, Param]] = None
    tags: FrozenSet[str] = frozenset()
    artifact_schema: str = EXPERIMENT_SCHEMA

    def validate_params(
            self, params: Optional[Mapping[str, object]] = None
    ) -> List[str]:
        """Check *params* against the schema; returns error strings."""
        errors: List[str] = []
        if self.params is None:
            return errors
        for name, value in sorted((params or {}).items()):
            declared = self.params.get(name)
            if declared is None:
                known = ", ".join(sorted(self.params)) or "none"
                errors.append(f"{self.workload_id}: unknown param {name!r} "
                              f"(declared: {known})")
            elif not declared.accepts(value):
                errors.append(f"{self.workload_id}: param {name!r} expects "
                              f"{declared.kind}, got {value!r}")
        return errors

    def call(self, seed: Optional[int] = None,
             params: Optional[Dict[str, object]] = None) -> ExperimentResult:
        """Validate *params* and invoke the runner.

        ``None`` values are withheld so the runner's own defaults apply;
        schema violations raise :class:`~repro.net.errors.WorkloadError`
        before any work happens.
        """
        errors = self.validate_params(params)
        if errors:
            raise WorkloadError("; ".join(errors))
        kwargs: Dict[str, object] = {}
        if seed is not None:
            kwargs["seed"] = seed
        if params is not None:
            kwargs["params"] = dict(params)
        return self.runner(**kwargs)


_REGISTRY: Dict[str, WorkloadSpec] = {}


def _check_runner_signature(experiment_id: str, runner: _Runner) -> None:
    """Every runner must accept ``seed`` and ``params`` by keyword."""
    try:
        signature = inspect.signature(runner)
    except (TypeError, ValueError):  # builtins / odd callables
        raise WorkloadError(
            f"experiment {experiment_id!r}: runner signature is not "
            "introspectable; runners must accept seed= and params=")
    accepted = set()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return
        if parameter.name in _REQUIRED_KEYWORDS and parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY):
            accepted.add(parameter.name)
    missing = [name for name in _REQUIRED_KEYWORDS if name not in accepted]
    if missing:
        raise WorkloadError(
            f"experiment {experiment_id!r}: runner must accept "
            f"{', '.join(missing)} by keyword (zero-arg runners were "
            "removed; declare runner(*, seed=..., params=None))")


def register(experiment_id: str, description: str, *,
             params: Optional[Mapping[str, Param]] = None,
             tags: Iterable[str] = ()) -> Callable[[_Runner], _Runner]:
    """Decorator registering a workload under *experiment_id*.

    *params* declares the typed parameter schema (``None`` leaves the
    workload unconstrained); *tags* label workload families (e.g.
    ``figure``, ``claim``) for enumeration and sweeps.
    """

    def wrap(runner: _Runner) -> _Runner:
        if experiment_id in _REGISTRY:
            raise ReproError(f"duplicate experiment id {experiment_id!r}")
        _check_runner_signature(experiment_id, runner)
        _REGISTRY[experiment_id] = WorkloadSpec(
            workload_id=experiment_id, description=description,
            runner=runner,
            params=dict(params) if params is not None else None,
            tags=frozenset(tags))
        return runner

    return wrap


def available() -> List[str]:
    """All registered experiment ids, sorted."""
    return sorted(_REGISTRY)


def all_specs() -> List[WorkloadSpec]:
    """Every registered :class:`WorkloadSpec`, sorted by id."""
    return [_REGISTRY[experiment_id] for experiment_id in available()]


def get_spec(experiment_id: str) -> WorkloadSpec:
    """The :class:`WorkloadSpec` registered under *experiment_id*."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(available())}") from None


def describe(experiment_id: str) -> str:
    return get_spec(experiment_id).description


def run(experiment_id: str, *, seed: Optional[int] = None,
        params: Optional[Dict[str, object]] = None,
        obs: Optional[Observability] = None) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"F1"``, ``"E5"``, ``"E12a"``).

    ``seed`` and ``params`` thread into the runner after validating
    against the workload's declared schema; ``obs`` activates the
    observability layer for the duration of the run (the runner's
    scheduler, protocols, and forwarding engine bind to it at
    construction).  The result is stamped with the run's metrics
    snapshot and trace path.
    """
    spec = get_spec(experiment_id)
    if obs is None:
        result = spec.call(seed=seed, params=params)
    else:
        with observing(obs):
            if obs.enabled:
                obs.event("experiment.start", experiment=experiment_id,
                          seed=seed, params=json_safe(params or {}))
            # The run's root span: every epoch/convergence/forwarding
            # span the runner produces lands in this one trace tree.
            with obs.span("experiment", experiment=experiment_id,
                          seed=seed) as span:
                result = spec.call(seed=seed, params=params)
                span.end()
            if obs.enabled:
                obs.event("experiment.end", experiment=experiment_id)
        if obs.enabled:
            result.metrics = obs.metrics_summary()
            result.trace_path = obs.trace_path
    if seed is not None and result.seed is None:
        result.seed = seed
    if params and not result.params:
        result.params = dict(params)
    return result


def format_error(exc: BaseException) -> str:
    """The deterministic error rendering of a failed fleet cell."""
    return f"{type(exc).__name__}: {exc}"
