"""The schema table against the documents the emitters really build.

This is the drift check: for each of the five versioned artifacts one
document is built through the public API, rich enough to fill every
list, map and nullable of its shape, and compared path by path with
:data:`repro.schema.SCHEMAS` — in both directions and at every depth.
A key an emitter adds without declaring it, and a key the table
declares that no emitter writes any more, both fail here.

The second half feeds the five ``validate_*_dict`` functions arbitrary
JSON: they answer with a list of problems, never with an exception.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import (build_catchment, build_report,
                           catchment_from_trace, validate_catchment_dict,
                           validate_report_dict)
from repro.experiments import run
from repro.fleet import FleetMatrix, run_fleet, validate_fleet_dict
from repro.lint import lint_sources
from repro.obs import Observability, Tracer
from repro.schema import ANY, SCHEMAS, MapOf, Nullable, Opt, validate

from tests.fleet._workloads import CRASH_ID, PROBE_ID


# -- one rich document per schema ------------------------------------------------

def traced(workload, **kwargs):
    obs = Observability(tracer=Tracer(context={"experiment": workload}))
    result = run(workload, obs=obs, **kwargs)
    obs.close()
    return result, obs.tracer.events()


def fleet_doc(traces_dir=None):
    """One successful and one failing cell; traced, cells carry metrics."""
    matrix = FleetMatrix.from_dict(
        {"workloads": [PROBE_ID, CRASH_ID], "base_seed": 3,
         "axes": {"scale": [3]}, "imports": ["tests.fleet._workloads"]})
    return run_fleet(matrix, workers=1, traces_dir=traces_dir)


#: A blackholed and a looping packet, so the example lists are not empty.
DROPPED = [
    {"kind": "span.start", "span_id": "x1", "trace_id": "x1",
     "name": "forward", "t": 1.0},
    {"kind": "span.end", "span_id": "x1", "trace_id": "x1",
     "name": "forward", "t": 1.0, "outcome": "no-route",
     "drop_reason": "no IPv4 route at r1"},
    {"kind": "span.start", "span_id": "x2", "trace_id": "x2",
     "name": "forward", "t": 2.0},
    {"kind": "span.end", "span_id": "x2", "trace_id": "x2",
     "name": "forward", "t": 2.0, "outcome": "loop",
     "drop_reason": "forwarding loop at r2"},
]


def report_doc(events):
    doc = build_report(itertools.chain(events, DROPPED))
    assert len(doc["epochs"]) >= 2 and doc["timeline"]
    return doc


def catchment_docs():
    """A probe run whose victim serves vantages, so catchments shift —
    once as the runner folds it in memory, once rebuilt from the trace.
    No healthy run flaps, so a synthetic series with a change off any
    fault boundary fills ``flaps.events[]``."""
    result, events = traced("rtt_catchment", seed=19,
                            params={"serving_victim": True})
    in_memory = result.data["catchment"]
    assert in_memory["shifts"]["count"] >= 1

    def seen(t, replica):
        return {"t": t, "vantage": "v", "target": "svc", "replica": replica,
                "rtt": 4.0, "best_rtt": 4.0, "best_replica": replica}
    flapping = build_catchment([seen(0.0, "a"), seen(1.0, "b")], ())
    return [in_memory, catchment_from_trace(events), flapping]


def lint_doc():
    """A finding, a suppressed one and a file that does not parse."""
    return lint_sources({
        "src/repro/mod.py": "import random\nx = random.random()\n"
                            "y = random.random()  # repro: allow[D1]\n",
        "src/repro/broken.py": "def f(:\n"}).to_dict()


def validate_lint_dict(doc):
    return validate("repro.lint/v1", doc)


def validate_experiment_dict(doc):
    return validate("repro.experiment/v1", doc)


VALIDATORS = {
    "repro.experiment/v1": validate_experiment_dict,
    "repro.fleet/v1": validate_fleet_dict,
    "repro.lint/v1": validate_lint_dict,
    "repro.report/v1": validate_report_dict,
    "repro.catchment/v1": validate_catchment_dict,
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """tag -> documents of that schema, each from a public emitter."""
    # A crash and a recovery epoch under the sampler's timeline.
    failover, events = traced("anycast_failover", seed=7,
                              params={"pairs": 12})
    return {"repro.experiment/v1": [failover.to_dict()],
            "repro.fleet/v1": [fleet_doc(str(tmp_path_factory.mktemp("t")))],
            "repro.lint/v1": [lint_doc()],
            "repro.report/v1": [report_doc(events)],
            "repro.catchment/v1": catchment_docs()}


# -- the table and a document as two sets of paths -----------------------------

def declared_paths(spec, path=""):
    """Every path the table names (``[]`` = any item, ``.*`` = any key)."""
    if isinstance(spec, (Nullable, Opt)):
        return declared_paths(spec.spec, path)
    if isinstance(spec, str) and spec in SCHEMAS:
        return declared_paths(SCHEMAS[spec], path)
    paths = {path}
    if isinstance(spec, list):
        paths |= declared_paths(spec[0], path + "[]")
    elif isinstance(spec, MapOf):
        paths |= declared_paths(spec.value, path + ".*")
    elif isinstance(spec, dict):
        for key, sub in spec.items():
            paths |= declared_paths(sub, f"{path}.{key}")
    return paths


def emitted_paths(spec, value, path=""):
    """Every path a valid *value* fills, read alongside its spec; what
    lies under ``ANY`` is one opaque leaf."""
    while isinstance(spec, (Nullable, Opt)):
        spec = spec.spec
    if value is None:
        return {path}
    if isinstance(spec, str) and spec in SCHEMAS:
        spec = SCHEMAS[spec]
    paths = {path}
    if isinstance(spec, list):
        for item in value:
            paths |= emitted_paths(spec[0], item, path + "[]")
    elif isinstance(spec, MapOf):
        for item in value.values():
            paths |= emitted_paths(spec.value, item, path + ".*")
    elif isinstance(spec, dict):
        for key, item in value.items():
            paths |= emitted_paths(spec.get(key, ANY), item, f"{path}.{key}")
    return paths


@pytest.mark.parametrize("tag", sorted(VALIDATORS))
class TestEmittersMatchTheTable:
    def test_built_documents_validate(self, built, tag):
        for doc in built[tag]:
            assert VALIDATORS[tag](doc) == []

    def test_every_emitted_path_is_declared(self, built, tag):
        for doc in built[tag]:
            assert emitted_paths(tag, doc) - declared_paths(tag) == set()

    def test_every_declared_path_is_emitted(self, built, tag):
        emitted = set().union(*(emitted_paths(tag, doc)
                                for doc in built[tag]))
        assert declared_paths(tag) - emitted == set()


def test_every_schema_of_the_table_has_a_document():
    embedded_only = {"repro.matrix/v1"}  # covered inside the fleet report
    assert set(SCHEMAS) == set(VALIDATORS) | embedded_only


# -- any JSON value in, a list of problems out -----------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=20)


def assert_problem_list(problems):
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)


@pytest.mark.parametrize("tag", sorted(VALIDATORS))
@settings(max_examples=200)
@given(value=json_values)
def test_validators_answer_any_json_value(tag, value):
    assert_problem_list(VALIDATORS[tag](value))


def concrete_paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from concrete_paths(child, path + (key,))


@pytest.mark.parametrize("tag", sorted(VALIDATORS))
@settings(max_examples=200)
@given(data=st.data())
def test_validators_answer_mutated_real_documents(built, tag, data):
    doc = copy.deepcopy(built[tag][0])
    *parents, last = data.draw(st.sampled_from(
        [path for path in concrete_paths(doc) if path]))
    holder = doc
    for key in parents:
        holder = holder[key]
    if data.draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = data.draw(json_values)
    assert_problem_list(VALIDATORS[tag](doc))


@pytest.mark.parametrize("validator", VALIDATORS.values())
def test_a_list_is_a_problem_not_a_crash(validator):
    assert validator([]) == ["document: expected object, got list"]


def test_problems_name_the_offending_path():
    doc = fleet_doc()
    doc["cells"][0]["artifact"]["rows"] = ["fine", 7]
    doc["matrix"]["schema"] = "repro.matrix/v0"
    assert validate("repro.fleet/v1", doc) == [
        "matrix.schema: expected 'repro.matrix/v1', got 'repro.matrix/v0'",
        "cells[0].artifact.rows[1]: expected string, got int"]
