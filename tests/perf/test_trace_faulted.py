"""ForwardingTrace.faulted is derived from the ``fault-drop`` action (or the
outcome); .max_depth is tracked at record() time."""

from repro.net import Outcome
from repro.net.forwarding import ForwardingTrace

from tests.conftest import build_two_domain_network


def test_faulted_set_by_record_and_sticky():
    net = build_two_domain_network()
    trace = ForwardingTrace()
    trace.record(net.node("h1"), "send")
    assert not trace.faulted
    trace.record(net.node("r1a"), "fault-drop", "link r1a<->r1b is down")
    assert trace.faulted
    trace.record(net.node("r1b"), "forward")  # later clean hop: still faulted
    assert trace.faulted


def test_fault_dropped_outcome_implies_faulted():
    trace = ForwardingTrace()
    trace.outcome = Outcome.FAULT_DROPPED
    assert trace.faulted


def test_clean_trace_is_not_faulted():
    net = build_two_domain_network()
    trace = ForwardingTrace()
    trace.record(net.node("h1"), "send")
    trace.record(net.node("r1a"), "forward")
    assert not trace.faulted


def test_max_depth_tracked_by_record():
    net = build_two_domain_network()
    trace = ForwardingTrace()
    assert trace.max_depth == 1
    trace.record(net.node("h1"), "send")
    trace.record(net.node("r1a"), "encap", depth=3)
    trace.record(net.node("r1b"), "decap", depth=2)  # shallower: max stays
    assert trace.max_depth == 3 == max(hop.depth for hop in trace.hops)
    assert trace.to_dict()["max_depth"] == 3
    assert "_max_depth" not in repr(trace)
