"""The flow fast path under churn: every replay equals a fresh walk.

A Hypothesis state machine drives a small generated internet through
adoption (deploy / expand / undeploy / rebuild), liveness changes made
behind the control plane's back (link fail / restore, node crash /
recovery), whole fault plans played by a ``FaultInjector`` (repeated
sends in their transient and recovered phases), anycast members
joining and leaving, host mobility and multicast joins, FIB rows and
local addresses changed directly on a router a stored walk crossed,
interleaved with repeated IPvN and IPv4 sends.  It runs under
``paranoid_caches`` (``tests/oracles.py``), which walks a copy of every
packet the fast path answers and asserts the replayed trace equals the
walked one — so state that changes without moving
``Network.forwarding_version`` fails the run at the first stale replay.

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

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition, rule,
                                 run_state_machine_as_test)

from repro.core.evolution import EvolvableInternet
from repro.faults import FaultInjector, FaultPlan
from repro.net.address import Prefix
from repro.net.link import LinkScope
from repro.net.node import FibEntry, RouteSource
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

    def __init__(self, verified: Counter) -> None:
        super().__init__()
        #: ``paranoid_caches``' counts; ``play_fault_plan`` adds the
        #: replays re-walked inside a plan as ``"fastpath_in_plans"``,
        #: ``change_on_path_directly`` its changes as ``"direct_changes"``.
        self.verified = verified
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
        if src_id != dst_id:
            self._send_twice(src_id, dst_id)

    def _send_twice(self, src_id, dst_id):
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

    def _messages(self):
        """BGP and link-state IGP messages sent so far.  (Distance-vector
        is left out: its ``refresh`` schedules a full advertisement round
        on every reconvergence, even a quiet one.)"""
        return (self.orch.bgp.stats.sent,
                sum(igp.stats.sent for igp in self.orch.igps.values()
                    if isinstance(igp, LinkStateRouting)))

    @rule()
    def rebuild_twice(self):
        """The second rebuild finds nothing to do (every domain quiet:
        this is where the refresh gate closes) and changes nothing: it
        sends no BGP or link-state message, settles no vN SPF row, skips
        every member, visits, writes and removes no vN FIB row, and
        keeps the fast path's stored walks."""
        self.deployment.rebuild()
        before = forwarding_state(self.network, self.deployment)
        stats = self.deployment.routing.gate_stats()
        version = self.network.forwarding_version
        messages = self._messages()
        self.deployment.rebuild()
        assert self._messages() == messages
        assert self.network.forwarding_version == version
        assert forwarding_state(self.network, self.deployment) == before
        after = self.deployment.routing.gate_stats()
        skipped = after["members_skipped"] - stats["members_skipped"]
        assert skipped == len(self.deployment.states)
        for key in ("rows_settled", "members_written", "rows_visited",
                    "rows_written", "rows_removed"):
            assert after[key] == stats[key], key

    # -- forwarding state, behind every control plane's back --------------------
    @rule(src=st.integers(0, 7), dst=st.integers(0, 7), hop=st.integers(0, 7),
          accept=st.booleans())
    def change_on_path_directly(self, src, dst, hop, accept):
        """A router an IPv4 walk crossed gets a static blackhole for the
        destination's address, or accepts that address itself, with no
        orchestrator or deployment call; then the change is undone.
        Sends repeat after each step, so each replay is re-walked."""
        src_id, dst_id = self._pick(self.hosts, src), self._pick(self.hosts, dst)
        if src_id == dst_id:
            return
        trace = self._ipv4(src_id, dst_id)
        on_path = [node_id for node_id in trace.node_path()
                   if self.network.node(node_id).is_router]
        if not trace.delivered or not on_path:
            return
        router = self.network.node(on_path[hop % len(on_path)])
        address = self.network.node(dst_id).ipv4
        self._send_twice(src_id, dst_id)
        if accept:
            router.add_local_ipv4(address)
        else:
            router.fib4.install(FibEntry(prefix=Prefix.host(address),
                                         next_hop=None, local=True,
                                         source=RouteSource.STATIC))
        self._send_twice(src_id, dst_id)
        if accept:
            router.remove_local_ipv4(address)
        else:
            router.fib4.withdraw(Prefix.host(address), RouteSource.STATIC)
        self._send_twice(src_id, dst_id)
        self.verified["direct_changes"] += 1

    # -- liveness, behind the control plane's back ----------------------------
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

    @rule(index=st.integers(0, 7))
    def anycast_member_join_leave(self, index):
        """An ISP withdraws one of its IPvN routers from the anycast
        group, or configures it back in."""
        scheme = self.deployment.scheme
        router_id = self._pick(self.deployment.live_members(), index)
        if router_id in scheme._members:
            scheme.remove_member(router_id)
        elif router_id is not None:
            scheme.add_member(router_id)

    # -- fault plans, on the forwarding path every other packet takes -------
    @rule(index=st.integers(0, 63), src=st.integers(0, 7),
          crash=st.booleans(), rebuild=st.booleans())
    def play_fault_plan(self, index, src, crash, rebuild):
        """One fault and its repair, played by a ``FaultInjector`` whose
        workload sends the same IPvN and IPv4 pairs twice in each phase:
        the second send of a pair is a replay ``paranoid_caches``
        re-walks.  Without the vN-Bone rebuild nothing bumps between
        the route reinstall and the recovered phase but the reinstall
        itself."""
        routers = sorted(node_id for node_id, node in self.network.nodes.items()
                         if node.is_router and node.up)
        if crash:
            victim = self._pick(routers, index)
            plan = (FaultPlan().crash_node(victim, at=10.0)
                    .recover_node(victim, at=50.0))
        else:
            key = self._pick([key for key, link in self.network.links.items()
                              if link.up and set(key) <= set(routers)], index)
            if key is None:
                return
            plan = FaultPlan().link_down(*key, at=10.0).link_up(*key, at=50.0)
        if self.deployment.needs_rebuild:
            self.deployment.rebuild()
        src_id = self._pick(self.hosts, src)
        dsts = [dst_id for dst_id in self.hosts if dst_id != src_id]

        def workload():
            for _ in range(2):
                for dst_id in dsts:
                    self.deployment.send(src_id, dst_id)
                    self._ipv4(src_id, dst_id)

        replays = self.verified["fastpath"]
        FaultInjector(self.orch, plan,
                      deployments=[self.deployment] if rebuild else ()
                      ).play(workload)
        self.verified["fastpath_in_plans"] += self.verified["fastpath"] - replays


def test_every_replay_equals_a_fresh_walk_under_churn(paranoid_caches):
    with checked_igp_installs() as igp, checked_bgp_installs() as bgp, \
            checked_vn_rebuilds() as vn:
        # 40 examples under the default 100 of ``ci``; ×20 under ``deep``.
        run_state_machine_as_test(
            lambda: FastPathChurn(paranoid_caches),
            settings=settings(max_examples=40 * settings().max_examples // 100,
                              stateful_step_count=30, deadline=None))
    # A divergent replay (install, rebuild) asserts inside the run; this
    # shows the run replayed (installed, rebuilt, skipped) at all.
    assert paranoid_caches["fastpath"] > 0
    assert paranoid_caches["fastpath_in_plans"] > 0
    assert paranoid_caches["direct_changes"] > 0
    assert paranoid_caches["igp_install"] > 0
    assert paranoid_caches["igp_refresh"] > 0
    assert igp["routers"] > 0 and vn["members"] > 0
    assert len(bgp) > 0


def test_an_update_over_a_down_session_is_dropped(paranoid_caches):
    """An update delivered over a session that is down is lost, like one
    to a crashed speaker.  Accepted, it sat in the Adj-RIB-In unable to
    install until the next session resync flushed it, so the second
    rebuild after a crash still changed forwarding state."""
    machine = FastPathChurn(paranoid_caches)
    with checked_igp_installs(), checked_bgp_installs(), \
            checked_vn_rebuilds():
        machine.crash_router(index=0)
        machine.rebuild_twice()
        machine.recover_router()
        machine.crash_router(index=0)
        machine.rebuild_twice()
    machine.teardown()
