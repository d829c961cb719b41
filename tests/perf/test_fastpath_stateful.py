"""The flow fast path under churn: every replay equals a fresh walk.

A Hypothesis state machine drives a small generated internet through
adoption (deploy / expand / undeploy / rebuild), liveness changes made
behind the control plane's back (link fail / restore, node crash /
recovery), host mobility and multicast joins, interleaved with repeated
IPvN and IPv4 sends.  It runs under ``paranoid_caches``
(``tests/oracles.py``), which walks a copy of every packet the fast
path answers and asserts the replayed trace equals the walked one — so
a site that changes forwarding state without dropping the stored flows
fails the run at the first stale replay.

The same churn holds the reconvergence gates: two stub domains run
distance-vector, and under ``checked_igp_installs``,
``checked_bgp_installs`` and ``checked_vn_rebuilds`` every IGP install,
every BGP install and every vN-Bone rebuild of the run is compared with
its from-scratch reference, so a site that writes protocol state
without bumping the router's route generation fails at the next
install.  One rule holds the refresh gate's scope: a flip inside one
domain moves only that domain's ``Network.domain_version``, so another
settled link-state domain skips its next scan (re-scanned by
``paranoid_caches``) while the flipped one scans.  (Every session of
this world rides one link, so no egress map moves here without a
session flush marking the lost routes dirty: a BGP
gate that patches where it should rebuild is caught by the
parallel-link and border-crash tests of
``tests/routing/test_install_gate.py``, not here.)
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition, rule,
                                 run_state_machine_as_test)

from repro.core.evolution import EvolvableInternet
from repro.net.link import LinkScope
from repro.net.packet import ipv4_packet
from repro.routing.linkstate import LinkStateRouting
from repro.topogen import InternetSpec, generate_internet
from repro.vnbone.mobility import MobilityService
from repro.vnbone.multicast import enable_multicast

from tests.oracles import (checked_bgp_installs, checked_igp_installs,
                           checked_vn_rebuilds, forwarding_state)

SEED = 23


class FastPathChurn(RuleBasedStateMachine):
    """One small world per example; rules pick targets by index so every
    example is a pure function of the drawn integers."""

    def __init__(self) -> None:
        super().__init__()
        spec = InternetSpec(n_tier1=2, n_tier2=2, n_stub=4, seed=SEED)
        generated = generate_internet(spec)
        # Two-router stubs: no loop for distance-vector to count around.
        self.internet = EvolvableInternet(
            generated.network, seed=SEED, generated=generated,
            igp_overrides={asn: "distancevector"
                           for asn in generated.stubs[:2]})
        self.network = self.internet.network
        self.orch = self.internet.orchestrator
        self.anchor = self.internet.tier1_asns()[0]
        self.deployment = self.internet.new_deployment(
            version=8, scheme="default", default_asn=self.anchor)
        self.deployment.deploy(self.anchor)
        self.deployment.rebuild()
        self.multicast = enable_multicast(self.deployment)
        self.group = self.multicast.create_group()
        self.mobility = MobilityService(self.deployment)
        self.hosts = self.internet.hosts()
        self.mobile = self.hosts[-1]
        self.mobility.enable(self.mobile)
        self.crashed = None

    def _pick(self, items, index):
        items = sorted(items)
        return items[index % len(items)] if items else None

    # -- traffic ----------------------------------------------------------
    @rule(src=st.integers(0, 7), dst=st.integers(0, 7))
    def send_twice(self, src, dst):
        src_id, dst_id = self._pick(self.hosts, src), self._pick(self.hosts, dst)
        if src_id == dst_id:
            return
        first = self.deployment.send(src_id, dst_id)
        second = self.deployment.send(src_id, dst_id)
        assert first.to_dict() == second.to_dict()
        self._ipv4(src_id, dst_id)
        self._ipv4(src_id, dst_id)

    def _ipv4(self, src_id, dst_id):
        packet = ipv4_packet(self.network.node(src_id).ipv4,
                             self.network.node(dst_id).ipv4)
        return self.orch.forward(packet, src_id)

    @rule(src=st.integers(0, 7))
    def probe_anycast_twice(self, src):
        scheme = self.deployment.scheme
        host_id = self._pick(self.hosts, src)
        assert scheme.resolve(host_id) == scheme.resolve(host_id)

    @rule(src=st.integers(0, 7))
    def multicast_send(self, src):
        self.multicast.rebuild()
        self.multicast.send(self._pick(self.hosts, src), self.group)

    # -- adoption ---------------------------------------------------------
    @rule(index=st.integers(0, 7))
    def deploy_one_router(self, index):
        asn = self._pick(set(self.network.domains)
                         - self.deployment.adopting_asns(), index)
        if asn is not None:
            routers = sorted(self.network.domains[asn].routers)
            self.deployment.deploy(asn, router_ids={routers[0]})

    @rule(index=st.integers(0, 7))
    def expand(self, index):
        partial = [asn for asn in self.deployment.adopting_asns()
                   if self.network.domains[asn].routers
                   - self.deployment.members()]
        asn = self._pick(partial, index)
        if asn is not None:
            rest = self.network.domains[asn].routers - self.deployment.members()
            self.deployment.expand(asn, {sorted(rest)[0]})

    @rule(index=st.integers(0, 7))
    def undeploy(self, index):
        asn = self._pick(self.deployment.adopting_asns() - {self.anchor}, index)
        if asn is not None:
            self.deployment.undeploy(asn)

    @rule()
    def rebuild_twice(self):
        """The second rebuild finds nothing to do (every domain quiet:
        this is where the refresh gate closes) and changes nothing: it
        skips every member and writes and removes no vN FIB row."""
        self.deployment.rebuild()
        before = forwarding_state(self.network, self.deployment)
        stats = self.deployment.routing.gate_stats()
        self.deployment.rebuild()
        assert forwarding_state(self.network, self.deployment) == before
        after = self.deployment.routing.gate_stats()
        skipped = after["members_skipped"] - stats["members_skipped"]
        assert skipped == len(self.deployment.states)
        for key in ("members_written", "rows_written", "rows_removed"):
            assert after[key] == stats[key], key

    # -- liveness, with no fault epoch pausing the fast path ---------------
    @rule(index=st.integers(0, 63))
    def fail_link(self, index):
        link = self.network.links[self._pick(self.network.links, index)]
        if link.up:
            link.fail()
            self.orch.notify_link_change(link)

    @rule(index=st.integers(0, 63))
    def restore_link(self, index):
        down = [key for key, link in self.network.links.items()
                if not link.up and self.network.node(link.a).up
                and self.network.node(link.b).up]
        key = self._pick(down, index)
        if key is not None:
            self.network.links[key].restore()
            self.orch.notify_link_change(self.network.links[key])

    @rule(a=st.integers(0, 63), b=st.integers(0, 7))
    def flip_in_one_domain_skips_another(self, a, b):
        """A flip inside domain A leaves a settled link-state domain B's
        next ``refresh()`` skipped — ``paranoid_caches`` re-scans B and
        must find every LSA current — while A's own refresh scans."""
        igps = self.orch.igps
        asn_b = self._pick([asn for asn, igp in igps.items()
                            if isinstance(igp, LinkStateRouting)], b)
        key = self._pick(
            [key for key, link in self.network.links.items()
             if link.scope is LinkScope.INTRA_DOMAIN
             and self.network.node(link.a).domain_id != asn_b
             and self.network.node(link.a).up
             and self.network.node(link.b).up], a)
        if key is None:
            return
        self.orch.reconverge()
        igp_b = igps[asn_b]
        igp_b.refresh()  # quiet after the drain: this call settles B
        link = self.network.links[key]
        if link.up:
            link.fail()
        else:
            link.restore()
        self.orch.notify_link_change(link)
        skipped = igp_b.refreshes_skipped
        igp_b.refresh()
        assert igp_b.refreshes_skipped == skipped + 1
        igp_a = igps.get(self.network.node(link.a).domain_id)
        if isinstance(igp_a, LinkStateRouting):
            skipped = igp_a.refreshes_skipped
            igp_a.refresh()
            assert igp_a.refreshes_skipped == skipped

    @precondition(lambda self: self.crashed is None)
    @rule(index=st.integers(0, 63))
    def crash_router(self, index):
        routers = [node_id for node_id, node in self.network.nodes.items()
                   if node.is_router]
        self.crashed = self._pick(routers, index)
        for link in self.network.crash_node(self.crashed):
            self.orch.notify_link_change(link)
        self.orch.notify_node_change(self.crashed)

    @precondition(lambda self: self.crashed is not None)
    @rule()
    def recover_router(self):
        for link in self.network.recover_node(self.crashed):
            self.orch.notify_link_change(link)
        self.orch.notify_node_change(self.crashed)
        self.crashed = None

    # -- mobility and group membership --------------------------------------
    @precondition(lambda self: self.crashed is None)
    @rule(index=st.integers(0, 7))
    def move_mobile_host(self, index):
        current = self.network.node(self.mobile).domain_id
        asn = self._pick(set(self.internet.stub_asns()) - {current}, index)
        access = sorted(self.network.domains[asn].routers)[0]
        self.mobility.move(self.mobile, asn, access)

    @rule(index=st.integers(0, 7))
    def join_group(self, index):
        self.multicast.join(self.group, self._pick(self.hosts, index))


def test_every_replay_equals_a_fresh_walk_under_churn(paranoid_caches):
    with checked_igp_installs() as igp, checked_bgp_installs() as bgp, \
            checked_vn_rebuilds() as vn:
        run_state_machine_as_test(
            FastPathChurn,
            settings=settings(max_examples=40, stateful_step_count=30,
                              deadline=None))
    # A divergent replay (install, rebuild) asserts inside the run; this
    # shows the run replayed (installed, rebuilt, skipped) at all.
    assert paranoid_caches["fastpath"] > 0
    assert paranoid_caches["igp_install"] > 0
    assert paranoid_caches["igp_refresh"] > 0
    assert igp["routers"] > 0 and vn["members"] > 0
    assert len(bgp) > 0
