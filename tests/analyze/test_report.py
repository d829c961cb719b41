"""Report building on a real seeded trace, plus schema and rendering.

The module-scoped fixture runs the observability acceptance scenario
(``anycast_failover``) once under a traced handle; every test then
reads the same in-memory event stream — mirroring how the CLI analyzes
a trace file, without touching disk.
"""

import json

import pytest

from repro.analyze import (REPORT_SCHEMA, build_report, render_report,
                           validate_report_dict)
from repro.experiments import run
from repro.obs import Observability, Tracer


@pytest.fixture(scope="module")
def traced_events():
    obs = Observability(tracer=Tracer(context={"experiment":
                                               "anycast_failover",
                                               "seed": 7}))
    run("anycast_failover", seed=7, obs=obs)
    obs.close()
    return obs.tracer.events()


@pytest.fixture(scope="module")
def report(traced_events):
    return build_report(traced_events)


@pytest.mark.slow
class TestReportOnSeededRun:
    def test_schema_validates(self, report):
        assert report["schema"] == REPORT_SCHEMA
        assert validate_report_dict(report) == []

    def test_run_context_is_carried(self, report):
        assert report["run"]["context"]["seed"] == 7
        assert report["run"]["trace_schema"] == "repro.trace/v4"
        assert report["run"]["complete"] is True

    def test_critical_path_has_nonzero_phases(self, report):
        epochs = report["epochs"]
        assert len(epochs) == 2  # crash epoch + recovery epoch
        for entry in epochs:
            path = entry["critical_path"]
            assert path["igp_holddown"] > 0  # HOLD_DOWN_DELAY
            assert path["igp_flood_spf"] > 0  # LSA flood + SPF
            assert path["total"] is not None and path["total"] > 0
            phases = (path["igp_holddown"] + path["igp_flood_spf"]
                      + path["bgp_resync"] + path["vnbone_rebuild"]
                      + path["other"])
            assert phases == pytest.approx(path["total"])

    def test_first_recovered_delivery_anchors_the_total(self, report):
        for entry in report["epochs"]:
            t0 = entry["t0"]
            first = entry["first_recovered_delivery_t"]
            assert first is not None
            assert entry["critical_path"]["total"] == pytest.approx(
                first - t0)

    def test_per_phase_delivery_from_forwarding_spans_alone(self, report):
        for entry in report["epochs"]:
            for side in ("transient", "recovered"):
                delivery = entry[side]
                assert delivery is not None
                assert delivery["attempted"] > 0
                assert delivery["delivered"] <= delivery["attempted"]

    def test_forwarding_distributions_are_populated(self, report):
        forwarding = report["forwarding"]
        assert forwarding["packets"] > 0
        dists = forwarding["distributions"]
        assert set(dists) == {"physical_hops", "vn_hops", "encapsulations",
                              "decapsulations", "max_depth", "latency"}
        hops = dists["physical_hops"]
        assert hops["count"] == forwarding["packets"]
        assert hops["min"] <= hops["mean"] <= hops["max"]
        assert hops["stddev"] >= 0

    def test_stretch_comes_from_reach_probes(self, report):
        probes = report["probes"]
        assert probes["count"] > 0
        assert probes["stretch"]["count"] > 0
        assert probes["stretch"]["min"] >= 1.0  # stretch is a ratio

    def test_timeline_ticks_are_ordered(self, report):
        timeline = report["timeline"]
        assert timeline, "sampler emitted no metric.sample events"
        times = [entry["t"] for entry in timeline]
        assert times == sorted(times)
        assert "scheduler.events_fired" in timeline[0]["counters"]

    def test_report_is_deterministic(self, traced_events, report):
        again = build_report(iter(traced_events))
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(report, sort_keys=True))

    def test_report_is_json_serializable(self, report):
        json.dumps(report)

    def test_render_mentions_the_headline_numbers(self, report):
        text = render_report(report)
        assert "critical path" in text
        assert "blackholes: 0" in text
        assert "repro.report/v1" in text
        assert "convergence timeline" in text


class TestSyntheticTraces:
    def run_events(self, events):
        doc = build_report(iter(events))
        assert validate_report_dict(doc) == []
        return doc

    def test_empty_stream_yields_a_valid_empty_report(self):
        doc = self.run_events([])
        assert doc["epochs"] == []
        assert doc["forwarding"]["packets"] == 0
        assert doc["run"]["complete"] is False

    def test_blackholes_detected_from_forward_spans_alone(self):
        events = [
            {"kind": "span.start", "span_id": "s1", "trace_id": "t1",
             "name": "forward", "t": 1.0},
            {"kind": "span.end", "span_id": "s1", "trace_id": "t1",
             "name": "forward", "t": 1.0, "outcome": "no-route",
             "physical_hops": 2, "drop_reason": "no IPv4 route at r1"},
            {"kind": "span.start", "span_id": "s2", "trace_id": "t2",
             "name": "forward", "t": 2.0},
            {"kind": "span.end", "span_id": "s2", "trace_id": "t2",
             "name": "forward", "t": 2.0, "outcome": "loop",
             "physical_hops": 64},
        ]
        doc = self.run_events(events)
        blackholes = doc["forwarding"]["blackholes"]
        assert blackholes["count"] == 1
        assert blackholes["by_outcome"] == {"no-route": 1}
        assert blackholes["examples"][0]["drop_reason"].startswith("no IPv4")
        loops = doc["forwarding"]["loops"]
        assert loops["count"] == 1
        assert loops["by_outcome"] == {"loop": 1}

    def test_example_lists_are_bounded(self):
        events = []
        for n in range(50):
            events.append({"kind": "span.start", "span_id": f"s{n}",
                           "trace_id": f"t{n}", "name": "forward"})
            events.append({"kind": "span.end", "span_id": f"s{n}",
                           "trace_id": f"t{n}", "name": "forward",
                           "outcome": "no-route"})
        doc = self.run_events(events)
        assert doc["forwarding"]["blackholes"]["count"] == 50
        assert len(doc["forwarding"]["blackholes"]["examples"]) == 10

    def test_schema_validator_flags_drift(self):
        doc = build_report(iter([]))
        doc["schema"] = "repro.report/v99"
        del doc["forwarding"]["blackholes"]
        doc["epochs"] = [{"critical_path": {"igp_holddown": "fast"}}]
        problems = validate_report_dict(doc)
        assert any("schema" in p for p in problems)
        assert any("blackholes" in p for p in problems)
        assert any("igp_holddown" in p for p in problems)

    def test_render_handles_an_empty_report(self):
        doc = build_report(iter([]))
        text = render_report(doc)
        assert "no fault epochs" in text
        assert "no sampler attached" in text
