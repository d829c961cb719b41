"""The workload-spec API: registration contracts, param schemas, obs
binding, and the ``repro.experiment/v1`` document."""

import json

import pytest

from repro.experiments import ExperimentResult, run
from repro.experiments.base import (EXPERIMENT_SCHEMA, Param,
                                    WorkloadSpec, _REGISTRY, all_specs,
                                    format_error, get_spec, register)
from repro.net.errors import WorkloadError
from repro.obs import NULL_OBS, Observability, Tracer, get_obs
from repro.schema import validate


def validate_experiment_dict(doc):
    return validate(EXPERIMENT_SCHEMA, doc)


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway experiments without leaking them."""
    added = []

    def scratch_register(experiment_id, description, runner, **kwargs):
        register(experiment_id, description, **kwargs)(runner)
        added.append(experiment_id)
        return _REGISTRY[experiment_id]

    yield scratch_register
    for experiment_id in added:
        _REGISTRY.pop(experiment_id, None)


def make_result(experiment_id="tmp", **kwargs):
    return ExperimentResult(experiment_id=experiment_id, title="t",
                            header="h", rows=["r"], data={}, **kwargs)


class TestRunnerSignatureContract:
    def test_seed_and_params_thread_through(self, scratch_registry):
        seen = {}

        def runner(seed=0, params=None):
            seen.update(seed=seed, params=params)
            return make_result(seed=seed, params=dict(params or {}))

        scratch_registry("tmp_new", "new-style", runner)
        result = run("tmp_new", seed=42, params={"k": 1})
        assert seen == {"seed": 42, "params": {"k": 1}}
        assert result.seed == 42
        assert result.params == {"k": 1}

    def test_zero_arg_runner_is_rejected_at_registration(self):
        with pytest.raises(WorkloadError, match="seed, params"):
            register("tmp_zero", "zero-arg")(lambda: make_result())
        assert "tmp_zero" not in _REGISTRY

    def test_seed_only_runner_is_rejected(self):
        with pytest.raises(WorkloadError, match="params"):
            register("tmp_half", "seed only")(lambda seed=0: make_result())

    def test_var_keyword_runner_is_accepted(self, scratch_registry):
        scratch_registry("tmp_var", "kwargs",
                         lambda **kwargs: make_result(**kwargs))
        assert run("tmp_var", seed=5).seed == 5

    def test_keyword_only_runner_is_accepted(self, scratch_registry):
        def runner(*, seed=0, params=None):
            return make_result(seed=seed)

        scratch_registry("tmp_kwonly", "kw-only", runner)
        assert run("tmp_kwonly", seed=9).seed == 9

    def test_defaults_apply_when_caller_passes_nothing(self, scratch_registry):
        def runner(seed=31, params=None):
            return make_result(seed=seed)

        scratch_registry("tmp_default", "default seed", runner)
        assert run("tmp_default").seed == 31


class TestParamSchema:
    def test_param_kind_is_checked(self):
        with pytest.raises(WorkloadError, match="unknown param kind"):
            Param("complex", 1)
        with pytest.raises(WorkloadError, match="not a int"):
            Param("int", "three")

    def test_float_accepts_int_but_not_bool(self):
        param = Param("float", 1.5)
        assert param.accepts(2)
        assert not param.accepts(True)

    def test_unknown_param_is_rejected_before_running(self, scratch_registry):
        calls = []

        def runner(seed=0, params=None):
            calls.append(1)
            return make_result()

        scratch_registry("tmp_schema", "schema", runner,
                         params={"sample": Param("int", 10, "pairs")})
        with pytest.raises(WorkloadError, match="unknown param 'bogus'"):
            run("tmp_schema", params={"bogus": 1})
        with pytest.raises(WorkloadError, match="expects int"):
            run("tmp_schema", params={"sample": "ten"})
        assert calls == []  # validation happens before any work

    def test_unconstrained_spec_accepts_anything(self, scratch_registry):
        scratch_registry("tmp_free", "unconstrained",
                         lambda seed=0, params=None: make_result())
        spec = get_spec("tmp_free")
        assert spec.params is None
        assert spec.validate_params({"whatever": object()}) == []

    def test_every_registered_spec_validates_its_own_defaults(self):
        for spec in all_specs():
            defaults = {name: param.default
                        for name, param in (spec.params or {}).items()}
            assert spec.validate_params(defaults) == [], \
                spec.workload_id


class TestObsBinding:
    def test_runner_sees_active_obs(self, scratch_registry):
        seen = {}

        def runner(seed=0, params=None):
            seen["obs"] = get_obs()
            return make_result()

        scratch_registry("tmp_obs", "obs capture", runner)
        obs = Observability()
        run("tmp_obs", obs=obs)
        assert seen["obs"] is obs
        assert get_obs() is NULL_OBS  # restored afterwards

    def test_result_stamped_with_metrics_and_trace(self, scratch_registry):
        def runner(seed=0, params=None):
            get_obs().counter("tmp.widgets").inc(5)
            return make_result()

        scratch_registry("tmp_metrics", "metrics stamping", runner)
        obs = Observability(tracer=Tracer(context={"seed": 0}))
        result = run("tmp_metrics", obs=obs)
        assert result.metrics["counters"]["tmp.widgets"] == 5
        assert result.trace_path is None  # in-memory tracer has no path
        kinds = [e["kind"] for e in obs.tracer.events()]
        assert "experiment.start" in kinds and "experiment.end" in kinds

    def test_without_obs_nothing_is_stamped(self, scratch_registry):
        scratch_registry("tmp_plain", "no obs",
                         lambda seed=0, params=None: make_result())
        result = run("tmp_plain")
        assert result.metrics == {}
        assert result.trace_path is None


class TestResultSerialization:
    def test_to_dict_carries_the_schema_tag(self):
        result = make_result(seed=7, params={"a": 1},
                             metrics={"counters": {"c": 1}})
        data = result.to_dict()
        assert data["schema"] == EXPERIMENT_SCHEMA
        assert data["experiment_id"] == "tmp"
        assert data["seed"] == 7
        assert data["params"] == {"a": 1}
        assert data["metrics"] == {"counters": {"c": 1}}
        json.dumps(data)  # JSON-safe by contract

    def test_to_dict_validates(self):
        assert validate_experiment_dict(make_result().to_dict()) == []

    def test_validator_catches_problems(self):
        doc = make_result().to_dict()
        doc["schema"] = "repro.experiment/v0"
        doc["rows"] = [1, 2]
        del doc["seed"]
        problems = "; ".join(validate_experiment_dict(doc))
        assert "schema" in problems
        assert "rows" in problems
        assert "seed: missing" in problems
        assert validate_experiment_dict("nope") != []

    def test_to_json_round_trips(self):
        result = make_result()
        text = json.dumps(result.to_dict(), sort_keys=True)
        assert json.loads(text)["experiment_id"] == "tmp"

    def test_data_is_json_safed(self):
        result = make_result()
        result.data = {"members": {"b", "a"}}
        assert result.to_dict()["data"] == {"members": ["a", "b"]}


class TestRunMany:
    def test_format_error_is_deterministic(self):
        assert format_error(ValueError("bad")) == "ValueError: bad"


class TestRegistrySpecs:
    def test_registered_specs_are_workload_specs(self):
        spec = get_spec("anycast_failover")
        assert isinstance(spec, WorkloadSpec)
        assert "faults" in spec.tags
        assert spec.artifact_schema == EXPERIMENT_SCHEMA
        assert set(spec.params) >= {"n_stub", "pairs", "crash_at"}

    def test_figures_carry_the_figure_tag(self):
        assert "figure" in get_spec("F1").tags
