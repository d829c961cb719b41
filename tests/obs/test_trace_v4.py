"""Trace schema v4: a flow's hops are listed once, then ``hops_at``.

A ``forward`` event lists its walk's rendered hops unless the last
``forward`` event of the same flow went to the same tracer at the same
topology version with an equal hop log; then it carries ``hops_at``, the
``seq`` of that event.  ``resolve_hops`` puts the list back, and must
give, for every event, exactly the hops of the trace ``forward()``
returned — with the fast path serving and held, across faults and a
host move.  ``validate_trace`` reports a ``hops_at`` that is not an int
or names no earlier listing, never raising on a damaged trace.
"""

import json

import pytest

from repro.analyze import resolve_hops
from repro.core.orchestrator import Orchestrator
from repro.net.forwarding import ForwardingEngine
from repro.net.packet import ipv4_packet
from repro.obs import (Observability, Tracer, observing, validate_spans,
                       validate_trace, validate_trace_lines)
from repro.vnbone.multicast import enable_multicast

from tests.conftest import build_two_domain_network
from tests.oracles import slow_path_held
from tests.scenarios import deployed_internet, ipv4_reachability


def _forward_events(events):
    return [event for event in events if event["kind"] == "forward"]


def _two_domain_world():
    obs = Observability(tracer=Tracer(context={"seed": 1}))
    net = build_two_domain_network()
    with observing(obs):
        orch = Orchestrator(net, seed=1)
        orch.converge()
    return obs, net, orch


def _send(net, orch, src, dst):
    return orch.forward(ipv4_packet(net.node(src).ipv4, net.node(dst).ipv4),
                        src)


class TestListedOncePerFlow:
    def test_a_repeated_flow_lists_its_hops_once(self):
        obs, net, orch = _two_domain_world()
        traces = [_send(net, orch, "h1", "h2") for _ in range(4)]
        assert orch.engine.fastpath.hits == 3
        obs.close()
        first, *rest = _forward_events(obs.tracer.events())
        assert first["hops"] == [hop.format() for hop in traces[0].hops]
        assert [event["hops_at"] for event in rest] == [first["seq"]] * 3
        assert not any("hops" in event for event in rest)
        assert validate_trace_lines(obs.tracer.lines()) == []

    def test_every_other_field_is_written_as_before(self):
        obs, net, orch = _two_domain_world()
        _send(net, orch, "h1", "h2")
        _send(net, orch, "h1", "h2")
        obs.close()
        listed, repeated = _forward_events(obs.tracer.events())
        for event in (listed, repeated):
            del event["seq"]
        assert listed.pop("hops") and repeated.pop("hops_at") is not None
        assert listed == repeated

    def test_another_flow_or_tracer_lists_again(self):
        obs, net, orch = _two_domain_world()
        _send(net, orch, "h1", "h2")
        _send(net, orch, "h2", "h1")
        orch.engine.obs = Observability(tracer=Tracer())
        _send(net, orch, "h1", "h2")
        obs.close()
        assert all("hops" in event
                   for event in _forward_events(obs.tracer.events()))
        assert "hops" in _forward_events(orch.engine.obs.tracer.events())[0]

    def test_a_changed_walk_of_the_flow_lists_again(self):
        obs, net, orch = _two_domain_world()
        _send(net, orch, "h1", "h2")
        net.link_between("r1b", "r2b").fail()
        _send(net, orch, "h1", "h2")
        _send(net, orch, "h1", "h2")
        obs.close()
        delivered, dropped, again = _forward_events(obs.tracer.events())
        assert dropped["outcome"] == "fault-dropped" and "hops" in dropped
        assert again["hops_at"] == dropped["seq"]

    def test_a_host_move_lists_the_same_log_again(self):
        """The log of a TTL-1 drop at the source host is the same before
        and after the host moves; only its rendered domain differs, so
        the topology version must key the memo."""
        obs, net, orch = _two_domain_world()
        packet = ipv4_packet(net.node("h1").ipv4, net.node("h2").ipv4, ttl=1)
        before = orch.forward(packet.copy(), "h1")
        rendered = [hop.format() for hop in before.hops]
        net.move_host("h1", 2, "r2a")
        after = orch.forward(packet.copy(), "h1")
        assert before._log == after._log
        obs.close()
        old, new = resolve_hops(_forward_events(obs.tracer.events()))
        assert old["hops"] == rendered == ["h1[AS1] drop (IPv4 TTL expired "
                                           "at h1)"]
        assert new["hops"] == [hop.format() for hop in after.hops]
        assert new["hops"][0].startswith("h1[AS2] drop")

    def test_emit_and_event_return_the_seq(self):
        tracer = Tracer()
        obs = Observability(tracer=tracer)
        assert obs.event("a") == 1 and tracer.emit("b") == 2
        tracer.close()
        assert obs.event("late") is None
        assert Observability().event("untraced") is None
        assert Observability.disabled().event("off") is None


def _recorded_run(path):
    """A traced run of repeated IPvN pairs, IPv4 sweeps, a crashed and
    recovered vN-Bone member and two multicast sends.  Returns the hops
    of every trace ``forward``/``forward_multicast`` returned, rendered
    at return, in event order, and how many were multicast branches."""
    rendered = []
    branches = []
    forward = ForwardingEngine.forward
    forward_multicast = ForwardingEngine.forward_multicast

    def recording_forward(self, packet, start, strict=False):
        trace = forward(self, packet, start, strict)
        rendered.append([hop.format() for hop in trace.hops])
        return trace

    def recording_multicast(self, packet, start):
        mtrace = forward_multicast(self, packet, start)
        rendered.extend([hop.format() for hop in branch.hops]
                        for branch in mtrace.branches)
        branches.append(len(mtrace.branches))
        return mtrace

    obs = Observability(tracer=Tracer(str(path), context={"seed": 7}))
    with pytest.MonkeyPatch.context() as patch, observing(obs):
        patch.setattr(ForwardingEngine, "forward", recording_forward)
        patch.setattr(ForwardingEngine, "forward_multicast",
                      recording_multicast)
        internet, deployment = deployed_internet(seed=7)
        hosts = internet.hosts()
        pairs = [(src, dst) for src in hosts[:3] for dst in hosts[-3:]
                 if src != dst]

        def traffic():
            for _ in range(2):
                for src, dst in pairs:
                    deployment.send(src, dst)
                ipv4_reachability(internet, sample=10, seed=7)

        victim = sorted(deployment.states)[1]
        traffic()
        crashed = internet.network.crash_node(victim)
        traffic()  # nothing reconverged: walks meet the crash
        deployment.rebuild()
        traffic()
        internet.network.recover_node(victim, links=crashed)
        deployment.rebuild()
        traffic()
        service = enable_multicast(deployment)
        group = service.create_group()
        for host_id in hosts[1:4]:
            service.join(group, host_id)
        service.rebuild()
        service.send(hosts[0], group)
        service.send(hosts[0], group)
    obs.close()
    return rendered, sum(branches)


@pytest.mark.parametrize("held", [False, True], ids=["served", "held"])
def test_resolved_hops_are_the_returned_traces_hops(tmp_path, held):
    path = tmp_path / "run.jsonl"
    if held:
        with slow_path_held():
            rendered, branches = _recorded_run(path)
    else:
        rendered, branches = _recorded_run(path)
    assert validate_trace(str(path)) == []
    assert validate_spans(str(path)) == []
    events = [json.loads(line) for line in path.read_text().splitlines()]
    forwards = _forward_events(events)
    resolved = _forward_events(resolve_hops(events))
    assert [event["hops"] for event in resolved] == rendered
    assert not any("hops_at" in event for event in resolved)
    # Not vacuous: many walks repeat a listed flow; a fault walk is
    # listed; every multicast branch lists its hops.
    repeats = sum("hops_at" in event for event in forwards)
    assert repeats > len(forwards) // 3
    assert any(event["faulted"] and "hops" in event for event in forwards)
    assert branches and all("hops" in event
                            for event in forwards[-branches:])


class TestHostileV4Input:
    @staticmethod
    def _lines():
        obs, net, orch = _two_domain_world()
        for _ in range(3):
            _send(net, orch, "h1", "h2")
        obs.close()
        lines = obs.tracer.lines()
        listing = next(n for n, line in enumerate(lines)
                       if '"hops":[' in line)
        return lines, listing

    @staticmethod
    def _dangling(errors):
        return [error for error in errors
                if "names no earlier forward event listing hops" in error]

    def test_clean_stream_validates(self):
        lines, _ = self._lines()
        assert validate_trace_lines(lines) == []

    def test_a_lost_listing_line_leaves_every_reference_dangling(self, tmp_path):
        lines, listing = self._lines()
        path = tmp_path / "cut.jsonl"
        path.write_text("\n".join(lines[:listing] + lines[listing + 1:])
                        + "\n")
        errors = validate_trace(str(path))
        assert len(self._dangling(errors)) == 2
        assert any("seq" in error and "!= expected" in error
                   for error in errors)

    @pytest.mark.parametrize("damage", [
        lambda line: line[:len(line) // 2],
        lambda line: line.replace('"hops":[', '"hops":[[', 1),
        lambda line: "",
        lambda line: json.dumps({**json.loads(line), "kind": "forwarded"}),
        lambda line: json.dumps({**json.loads(line), "hops": "x"}),
    ], ids=["truncated", "unparsable", "blank", "not-forward", "not-a-list"])
    def test_a_damaged_listing_line_leaves_references_dangling(self, tmp_path,
                                                               damage):
        lines, listing = self._lines()
        lines[listing] = damage(lines[listing])
        path = tmp_path / "damaged.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert len(self._dangling(validate_trace(str(path)))) == 2
        events = []
        for line in lines:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        left = [event for event in resolve_hops(events)
                if "hops_at" in event]
        assert len(left) == 2

    def test_hops_at_pointing_forward_or_at_a_non_forward_event(self):
        lines, listing = self._lines()
        repeats = [n for n, line in enumerate(lines) if '"hops_at"' in line]
        first = json.loads(lines[repeats[0]])
        second = json.loads(lines[repeats[1]])
        first["hops_at"] = second["seq"]  # forward in the stream
        second["hops_at"] = second["seq"] - 1  # the span.end before it
        lines[repeats[0]] = json.dumps(first)
        lines[repeats[1]] = json.dumps(second)
        assert json.loads(lines[repeats[1] - 1])["kind"] != "forward"
        errors = validate_trace_lines(lines)
        assert self._dangling(errors) == [
            f"line {repeats[0] + 1}: hops_at {second['seq']} names no "
            "earlier forward event listing hops",
            f"line {repeats[1] + 1}: hops_at {second['seq'] - 1} names no "
            "earlier forward event listing hops"]

    @pytest.mark.parametrize("value", ["3", 3.0, True, None, [3], {"at": 3}])
    def test_hops_at_that_is_not_an_int(self, value):
        lines, _ = self._lines()
        n = next(n for n, line in enumerate(lines) if '"hops_at"' in line)
        event = json.loads(lines[n])
        event["hops_at"] = value
        lines[n] = json.dumps(event)
        assert validate_trace_lines(lines) == [
            f"line {n + 1}: 'hops_at' is not an int"]
        assert "hops_at" in _forward_events(
            resolve_hops(json.loads(line) for line in lines))[1]
