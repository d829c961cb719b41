"""Unit tests for the metrics module."""

import pytest

from repro.anycast import DefaultRootedAnycast
from repro.core.metrics import (ReachabilityReport, measure_reachability,
                                outcome_histogram, path_stretch,
                                routing_state_table, summarize,
                                trace_path_cost, traffic_share, vn_coverage,
                                vn_tail_length)
from repro.net import ipv4_packet
from repro.vnbone import VnDeployment


@pytest.fixture
def deployment(converged_hub):
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
    dep = VnDeployment(converged_hub, scheme, version=8)
    dep.deploy(2)
    dep.rebuild()
    return dep


class TestTraceMetrics:
    def test_path_cost_matches_hops(self, converged_hub):
        net = converged_hub.network
        trace = converged_hub.forward(
            ipv4_packet(net.node("hx").ipv4, net.node("hz").ipv4), "hx")
        assert trace_path_cost(net, trace) == pytest.approx(
            float(trace.physical_hops))  # unit link costs

    def test_direct_ipv4_stretch_is_one(self, converged_hub):
        net = converged_hub.network
        trace = converged_hub.forward(
            ipv4_packet(net.node("hx").ipv4, net.node("hz").ipv4), "hx")
        assert path_stretch(net, trace, "hx", "hz") == pytest.approx(1.0)

    def test_vn_stretch_at_least_one(self, deployment, converged_hub):
        trace = deployment.send("hz", "hx")
        stretch = path_stretch(converged_hub.network, trace, "hz", "hx")
        assert stretch is not None and stretch >= 1.0

    def test_stretch_none_for_failures(self, converged_hub, deployment):
        deployment.undeploy(2)
        deployment.rebuild()
        trace = deployment.send("hz", "hx")
        assert not trace.delivered
        assert path_stretch(converged_hub.network, trace, "hz", "hx") is None

    def test_tail_and_coverage(self, deployment, converged_hub):
        trace = deployment.send("hx", "hz")
        tail = vn_tail_length(converged_hub.network, trace)
        assert tail is not None and tail >= 1
        coverage = vn_coverage(trace)
        assert coverage is not None and 0.0 <= coverage <= 1.0

    def test_last_vn_domain(self, deployment, converged_hub):
        trace = deployment.send("hz", "hx")
        assert converged_hub.network.node(trace.last_vn_node).domain_id == 2

    def test_tail_none_without_egress(self, converged_hub):
        net = converged_hub.network
        trace = converged_hub.forward(
            ipv4_packet(net.node("hx").ipv4, net.node("hz").ipv4), "hx")
        assert vn_tail_length(net, trace) is None


class TestReachability:
    def test_report_counts(self, deployment, converged_hub):
        pairs = [("hx", "hz"), ("hz", "hx")]
        report = measure_reachability(converged_hub.network, deployment.send,
                                      pairs)
        assert report.attempted == 2
        assert report.delivered == 2
        assert report.delivery_ratio == 1.0
        assert report.mean_stretch is not None
        assert report.median_stretch is not None
        assert report.max_stretch >= report.median_stretch

    def test_failures_recorded(self, converged_hub, deployment):
        deployment.undeploy(2)
        deployment.rebuild()
        report = measure_reachability(converged_hub.network, deployment.send,
                                      [("hx", "hz")])
        assert report.delivered == 0
        assert sum(report.failures.values()) == 1
        assert report.mean_stretch is None

    def test_empty_report(self):
        report = ReachabilityReport()
        assert report.delivery_ratio == 0.0


class TestAggregates:
    def test_routing_state_table(self):
        table = routing_state_table({1: 4, 2: 6})
        assert table == {"total": 10.0, "mean": 5.0, "max": 6.0}
        assert routing_state_table({}) == {"total": 0.0, "mean": 0.0, "max": 0.0}

    def test_traffic_share(self, deployment, converged_hub):
        traces = [deployment.send("hz", "hx"), deployment.send("hx", "hz")]
        share = traffic_share(converged_hub.network, traces, 2)
        assert share == 1.0  # all ingresses are in the only adopting AS
        assert traffic_share(converged_hub.network, traces, 3) == 0.0
        assert traffic_share(converged_hub.network, [], 2) == 0.0

    def test_outcome_histogram(self, deployment):
        traces = [deployment.send("hz", "hx")]
        histogram = outcome_histogram(traces)
        assert histogram == {"delivered": 1}

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["min"] == 1.0
        assert stats["mean"] == 2.0
        assert stats["median"] == 2.0
        assert stats["max"] == 3.0
        assert stats["n"] == 3.0
        assert summarize([])["n"] == 0.0
