"""The catchment observatory: epoch assignment, shift/flap attribution,
schema, and the byte-identity guarantees the acceptance criteria pin.

Synthetic-sample tests exercise the analyzer alone; the seeded
``rtt_catchment`` runs exercise the whole measurement plane (probe
engine + fault injector + analyzer) end to end.
"""

import json

import pytest

from repro.analyze import (CATCHMENT_SCHEMA, build_catchment,
                           catchment_from_trace, render_catchment,
                           validate_catchment_dict)
from repro.experiments import run
from repro.obs import Observability, Tracer

from tests.oracles import slow_path_held


def sample(t, vantage="v0", target="svc", replica="a", rtt=4.0,
           best_rtt=4.0):
    return {"t": t, "vantage": vantage, "target": target,
            "replica": replica, "rtt": rtt, "best_rtt": best_rtt,
            "best_replica": replica}


def lost(t, vantage="v0", target="svc"):
    return {"t": t, "vantage": vantage, "target": target, "replica": None,
            "rtt": None, "best_rtt": None, "best_replica": None}


BOUNDARIES = ({"t": 10.0, "description": "node-crash a"},
              {"t": 50.0, "description": "node-recover a"})


class TestEpochAssignment:
    def test_boundaries_open_epochs(self):
        doc = build_catchment([sample(0.0), sample(20.0), sample(60.0)],
                              BOUNDARIES)
        assert [e["probes"] for e in doc["epochs"]] == [1, 1, 1]
        assert doc["epochs"][1]["boundaries"] == ["node-crash a"]

    def test_sample_at_boundary_belongs_to_the_earlier_epoch(self):
        # The scheduler fires a probe due exactly at a fault boundary
        # before the fault applies; the analyzer must agree.
        doc = build_catchment([sample(10.0)], BOUNDARIES)
        assert [e["probes"] for e in doc["epochs"]] == [1, 0, 0]

    def test_simultaneous_faults_share_one_epoch(self):
        doubled = ({"t": 10.0, "description": "link-fail x"},
                   {"t": 10.0, "description": "link-fail y"})
        doc = build_catchment([sample(0.0)], doubled)
        assert len(doc["epochs"]) == 2
        assert doc["epochs"][1]["boundaries"] == ["link-fail x",
                                                  "link-fail y"]


class TestShiftAndFlapAttribution:
    def test_change_across_a_boundary_is_a_shift(self):
        doc = build_catchment(
            [sample(0.0, replica="a"), sample(20.0, replica="b")],
            BOUNDARIES)
        assert doc["shifts"]["count"] == 1
        assert doc["flaps"]["count"] == 0
        shift = doc["epochs"][1]["shifts"][0]
        assert (shift["from"], shift["to"]) == ("a", "b")

    def test_change_within_an_epoch_is_a_flap(self):
        doc = build_catchment(
            [sample(12.0, replica="a"), sample(20.0, replica="b")],
            BOUNDARIES)
        assert doc["shifts"]["count"] == 0
        assert doc["flaps"]["count"] == 1
        flap = doc["flaps"]["events"][0]
        assert (flap["from"], flap["to"], flap["t"]) == ("a", "b", 20.0)

    def test_loss_between_observations_does_not_reset_attribution(self):
        doc = build_catchment(
            [sample(0.0, replica="a"), lost(12.0),
             sample(20.0, replica="b")], BOUNDARIES)
        assert doc["shifts"]["count"] == 1
        assert doc["flaps"]["count"] == 0

    def test_convergence_time_is_first_all_delivered_round(self):
        samples = [sample(0.0, vantage="v0"), sample(0.0, vantage="v1"),
                   lost(12.0, vantage="v0"), sample(12.0, vantage="v1"),
                   sample(17.0, vantage="v0", replica="b"),
                   sample(17.0, vantage="v1")]
        doc = build_catchment(samples, BOUNDARIES)
        assert doc["epochs"][0]["convergence_time"] is None  # baseline
        assert doc["epochs"][1]["convergence_time"] == 7.0

    def test_rtt_inflation_percentiles(self):
        samples = [sample(0.0, rtt=4.0, best_rtt=4.0),
                   sample(1.0, rtt=6.0, best_rtt=4.0)]
        doc = build_catchment(samples, ())
        assert doc["rtt_inflation"]["p50"] == 1.0
        assert doc["rtt_inflation"]["p99"] == 1.5


class TestSchema:
    def test_built_documents_validate(self):
        doc = build_catchment([sample(0.0), lost(20.0)], BOUNDARIES,
                              context={"seed": 1})
        assert doc["schema"] == CATCHMENT_SCHEMA
        assert validate_catchment_dict(doc) == []

    def test_validation_flags_missing_sections(self):
        doc = build_catchment([sample(0.0)], ())
        broken = dict(doc)
        del broken["rtt_inflation"]
        broken["schema"] = "repro.catchment/v0"
        problems = validate_catchment_dict(broken)
        assert any("schema" in p for p in problems)
        assert any("rtt_inflation" in p for p in problems)

    def test_rendering_mentions_shifts_and_flaps(self):
        doc = build_catchment(
            [sample(0.0, replica="a"), sample(20.0, replica="b"),
             sample(30.0, replica="a")], BOUNDARIES)
        text = render_catchment(doc)
        assert "shift:" in text
        assert "flap at t=30.0" in text


@pytest.mark.slow
class TestSeededMeasurementPlane:
    def test_serving_victim_shifts_are_fault_attributed(self):
        result = run("rtt_catchment", seed=19,
                     params={"serving_victim": True})
        doc = result.data["catchment"]
        assert validate_catchment_dict(doc) == []
        assert doc["shifts"]["count"] >= 1
        assert doc["flaps"]["count"] == 0
        # Every shift lands in a post-fault epoch, never the baseline.
        assert all(not e["shifts"] for e in doc["epochs"] if e["epoch"] == 0)

    def test_trace_derived_catchment_matches_in_memory(self):
        obs = Observability(tracer=Tracer(context={"experiment":
                                                   "rtt_catchment",
                                                   "seed": 19}))
        result = run("rtt_catchment", seed=19, obs=obs)
        obs.close()
        from_trace = dict(catchment_from_trace(obs.tracer.events()))
        in_memory = dict(result.data["catchment"])
        # The two sides carry different run contexts by construction;
        # everything else must match byte for byte.
        from_trace.pop("run")
        in_memory.pop("run")
        assert (json.dumps(from_trace, sort_keys=True)
                == json.dumps(in_memory, sort_keys=True))

    def test_byte_identical_across_fastpath_modes(self):
        fast = run("rtt_catchment", seed=19).data["catchment"]
        with slow_path_held():
            slow = run("rtt_catchment", seed=19).data["catchment"]
        assert (json.dumps(fast, sort_keys=True)
                == json.dumps(slow, sort_keys=True))

    def test_byte_identical_across_caching_modes(self, plain_catchment,
                                                 paranoid_caches):
        # Every cache hit of this run is re-derived and compared, so it
        # answers as an uncached run would.
        rederived = run("rtt_catchment", seed=19).data["catchment"]
        for mechanism in ("PathCache", "EgressCache", "DelayOracle",
                          "igp_install"):
            assert paranoid_caches[mechanism] > 0, mechanism
        assert (json.dumps(rederived, sort_keys=True)
                == json.dumps(plain_catchment, sort_keys=True))


@pytest.fixture(scope="module")
def plain_catchment():
    """The seeded document with no patch applied (module-scoped, so set
    up before the function-scoped ``paranoid_caches``)."""
    return run("rtt_catchment", seed=19).data["catchment"]
