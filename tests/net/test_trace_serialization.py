"""Serialization contract of forwarding traces.

``to_dict()`` output must survive a JSON round trip byte-identically
(dump -> load -> dump), and ``HopRecord.format()`` is the single
rendering both the pretty trace and the JSONL event form use — pinned
here on the multicast decisions (``vn-replicate`` / ``vn-egress``)
whose hops carry depth and detail annotations.  A trace keeps a compact
hop log and words each hop on read; ``TestCompactHopLog`` pins that
wording, for every action the walk records, to the strings PR 14's walk
formatted at ``record()`` time.
"""

import json

from repro.net import Domain, Network, Prefix, ipv4
from repro.net.address import VNAddress
from repro.net.forwarding import (ForwardingEngine, HopRecord, VnDeliver,
                                  VnEgress, VnEncap, VnForward, VnReplicate)
from repro.net.node import FibEntry, RouteSource
from repro.net.packet import IPv4Header, VNHeader, ipv4_packet, vn_packet
from repro.obs import Observability, Tracer

GROUP = VNAddress((1 << 62) | 7)


def star_network(n_leaves=3):
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    hub = net.add_router("hub", 1)
    leaves = [net.add_router(f"l{i}", 1) for i in range(n_leaves)]
    for leaf in leaves:
        net.add_link("hub", leaf.node_id)
        hub.fib4.install(FibEntry(prefix=Prefix.host(leaf.ipv4),
                                  next_hop=leaf.node_id,
                                  source=RouteSource.STATIC))
        leaf.fib4.install(FibEntry(prefix=Prefix.host(hub.ipv4),
                                   next_hop="hub",
                                   source=RouteSource.STATIC))
    return net, hub, leaves


def multicast_trace():
    """A replicated delivery exercising vn-replicate and vn-egress.

    The hub forks one copy per leaf (``VnForward``); each leaf then
    exits the vN-Bone towards its own host (``VnEgress``), so both
    decision kinds leave hop records in the branch traces.
    """
    net, hub, leaves = star_network(2)
    hosts = [net.add_host(f"h{i}", 1, leaf.node_id)
             for i, leaf in enumerate(leaves)]
    host_of = {leaf.node_id: host for leaf, host in zip(leaves, hosts)}
    for leaf, host in zip(leaves, hosts):
        host.vn_groups.add(GROUP)
        hub.fib4.install(FibEntry(prefix=Prefix.host(host.ipv4),
                                  next_hop=leaf.node_id,
                                  source=RouteSource.STATIC))
        leaf.fib4.install(FibEntry(prefix=Prefix.host(host.ipv4),
                                   next_hop=host.node_id,
                                   source=RouteSource.STATIC))
    engine = ForwardingEngine(net)

    def handler(node, packet):
        if node.node_id == "hub":
            return VnReplicate(copies=tuple(VnForward(leaf.node_id)
                                            for leaf in leaves),
                               mark_downstream=True)
        return VnEgress(host_of[node.node_id].ipv4)

    engine.register_vn_handler(8, handler)
    for node in net.nodes.values():
        if node.is_router:
            node.set_vn_state(8, object())
    packet = vn_packet(VNAddress(1), GROUP)
    packet.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
    return engine.forward_multicast(packet, "hub"), hosts


def roundtrip(doc):
    first = json.dumps(doc, sort_keys=True)
    second = json.dumps(json.loads(first), sort_keys=True)
    return first, second


class TestToDictRoundTrip:
    def test_forwarding_trace_roundtrips_byte_identical(self):
        trace, _ = multicast_trace()
        branch = trace.branches[0]
        first, second = roundtrip(branch.to_dict())
        assert first == second

    def test_multicast_trace_roundtrips_byte_identical(self):
        trace, hosts = multicast_trace()
        assert trace.delivered_to == {h.node_id for h in hosts}
        first, second = roundtrip(trace.to_dict())
        assert first == second

    def test_rendered_field_matches_format(self):
        trace, _ = multicast_trace()
        for branch in trace.branches:
            for hop, hop_doc in zip(branch.hops,
                                    branch.to_dict()["hops"]):
                assert hop_doc["rendered"] == hop.format()


class TestHopRecordFormat:
    def test_replicate_hop_renders_with_copy_count(self):
        trace, _ = multicast_trace()
        root = trace.branches[0]
        replicate = [hop for hop in root.hops if hop.action == "vn-replicate"]
        assert replicate, "root branch never replicated"
        rendered = replicate[0].format()
        assert rendered.startswith("hub[AS1] vn-replicate")
        assert replicate[0].detail in rendered

    def test_egress_hop_renders_exit_detail(self):
        trace, _ = multicast_trace()
        egress = [hop for branch in trace.branches for hop in branch.hops
                  if hop.action == "vn-egress"]
        assert egress, "no branch exited the vN-Bone"
        rendered = egress[0].format()
        assert "vn-egress" in rendered
        assert "exit vN-Bone" in rendered

    def test_depth_and_fault_annotations(self):
        deep = HopRecord(node_id="r1", domain_id=2, action="ipv4-forward",
                         detail="next x", depth=3, faulted=True)
        rendered = deep.format()
        assert rendered == "r1[AS2] ipv4-forward (next x) [depth=3] [fault]"
        plain = HopRecord(node_id="r1", domain_id=2, action="deliver")
        assert plain.format() == "r1[AS2] deliver"
        assert str(plain) == plain.format()


CORE_VN = VNAddress((1 << 32) | 1)
HOST_VN = VNAddress((1 << 32) | 9)

#: What the parent commit rendered for :func:`every_action_once`, walk
#: by walk (its f-strings ran inside the walk; these are their output).
PARENT_RENDERING = [
    ["hub[AS1] decap (now IPv8[v8:0000000000000002/native -> "
     "v8:4000000000000007/native ttl=64])",
     "hub[AS1] vn-encap (tunnel IPv8[v8:0000000000000002/native -> "
     "v8:0000000100000001/native ttl=64]) [depth=2]",
     "hub[AS1] vn-forward (tunnel -> core) [depth=3]",
     "hub[AS1] ipv4-forward (-> core (10.1.0.0/24)) [depth=3] [lat=2.5]",
     "core[AS1] decap (now IPv8[v8:0000000000000002/native -> "
     "v8:0000000100000001/native ttl=63]) [depth=2] [lat=2.5]",
     "core[AS1] vn-decap (now IPv8[v8:0000000000000002/native -> "
     "v8:4000000000000007/native ttl=63]) [lat=2.5]",
     "core[AS1] vn-replicate (1 copies) [lat=2.5]"],
    ["core[AS1] ipv4-forward (-> h (10.1.0.3/32)) [depth=2] [lat=1]",
     "h[AS1] decap (now IPv8[v8:0000000000000002/native -> "
     "v8:4000000000000007/native ttl=62]) [lat=1]",
     "h[AS1] vn-deliver (v8:4000000000000007/native) [lat=1]"],
    ["hub[AS1] decap (now IPv8[v8:0000000000000002/native -> "
     "v8:0000000100000009/native ttl=64])",
     "hub[AS1] vn-egress (exit vN-Bone -> 10.1.0.3) [depth=2]",
     "hub[AS1] ipv4-forward (-> core (10.1.0.0/24)) [depth=2] [lat=2.5]",
     "core[AS1] ipv4-forward (-> h (10.1.0.3/32)) [depth=2] [lat=3.5]",
     "h[AS1] decap (now IPv8[v8:0000000000000002/native -> "
     "v8:0000000100000009/native ttl=63]) [lat=3.5]",
     "h[AS1] vn-deliver (v8:0000000100000009/native) [lat=3.5]"],
    ["hub[AS1] ipv4-forward (-> core (10.1.0.0/24)) [lat=2.5]",
     "core[AS1] deliver [lat=2.5]"],
    ["hub[AS1] drop (no IPv4 route at hub for 99.0.0.1)"],
    ["hub[AS1] fault-drop (link hub<->core is down) [fault]"],
]

ALL_ACTIONS = {"ipv4-forward", "decap", "vn-decap", "vn-forward", "vn-encap",
               "vn-egress", "vn-deliver", "vn-replicate", "deliver", "drop",
               "fault-drop"}


def every_action_once():
    """A multicast register walk (hub tunnels to the core, the core
    replicates out to a joined host), a unicast IPvN egress, and three
    IPv4 walks (delivered, no route, down link) under a tracer: the
    walks in order, and the ``hops`` of their ``forward`` events."""
    net = Network()
    net.add_domain(Domain(asn=1, name="one",
                          prefix=Prefix.parse("10.1.0.0/16")))
    hub = net.add_router("hub", 1)
    core = net.add_router("core", 1)
    net.add_link("hub", "core", delay=2.5)
    host = net.add_host("h", 1, "core")
    host.vn_groups.add(GROUP)
    host.assign_vn_address(HOST_VN)
    hub.fib4.install(FibEntry(prefix=Prefix.parse("10.1.0.0/24"),
                              next_hop="core", source=RouteSource.STATIC))
    core.fib4.install(FibEntry(prefix=Prefix.host(hub.ipv4), next_hop="hub",
                               source=RouteSource.STATIC))
    core.fib4.install(FibEntry(prefix=Prefix.host(host.ipv4), next_hop="h",
                               source=RouteSource.STATIC))

    def handler(node, packet):
        header = packet.outer
        if header.dst == CORE_VN:
            return VnDeliver() if node is core else VnForward("core")
        if header.dst == HOST_VN:
            return VnEgress(host.ipv4)
        if node is hub:
            return VnEncap(VNHeader(src=VNAddress(2), dst=CORE_VN))
        return VnReplicate(copies=(VnEgress(host.ipv4),),
                           mark_downstream=True)

    tracer = Tracer()
    engine = ForwardingEngine(net, obs=Observability(tracer=tracer))
    engine.register_vn_handler(8, handler)
    for router in (hub, core):
        router.set_vn_state(8, object())
    register = vn_packet(VNAddress(2), GROUP)
    register.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
    walks = list(engine.forward_multicast(register, "hub").branches)
    unicast = vn_packet(VNAddress(2), HOST_VN)
    unicast.encapsulate(IPv4Header(src=hub.ipv4, dst=hub.ipv4))
    walks.append(engine.forward(unicast, "hub"))
    walks.append(engine.forward(ipv4_packet(hub.ipv4, core.ipv4), "hub"))
    walks.append(engine.forward(ipv4_packet(hub.ipv4, ipv4("99.0.0.1")),
                                "hub"))
    net.link_between("hub", "core").fail()
    walks.append(engine.forward(ipv4_packet(hub.ipv4, core.ipv4), "hub"))
    events = [event["hops"] for event in tracer.events()
              if event["kind"] == "forward"]
    return walks, events


class TestCompactHopLog:
    def test_every_action_renders_as_the_parent_did(self):
        walks, events = every_action_once()
        assert {hop.action for walk in walks
                for hop in walk.hops} == ALL_ACTIONS
        assert events == PARENT_RENDERING
        for walk, expected in zip(walks, PARENT_RENDERING):
            assert [hop.format() for hop in walk.hops] == expected
            assert [doc["rendered"]
                    for doc in walk.to_dict()["hops"]] == expected
            assert str(walk).splitlines()[1:] == [
                f"  {line}" for line in expected]

    def test_detail_and_fault_flag_come_from_the_logged_subject(self):
        walks, _ = every_action_once()
        docs = [doc for walk in walks for doc in walk.to_dict()["hops"]]
        for doc in docs:
            assert doc["faulted"] == (doc["action"] == "fault-drop")
            extra = f" ({doc['detail']})" if doc["detail"] else ""
            assert doc["rendered"].startswith(
                f"{doc['node']}[AS{doc['domain']}] {doc['action']}{extra}")
        deliver = [doc for doc in docs if doc["action"] == "deliver"]
        assert deliver and all(doc["detail"] == "" for doc in deliver)

    def test_hops_are_rendered_on_read_and_not_retained(self):
        walks, _ = every_action_once()
        walk = walks[2]
        first, second = walk.hops, walk.hops
        assert first == second and first is not second
        assert all(a is not b for a, b in zip(first, second))
        assert not hasattr(walk, "__dict__")
