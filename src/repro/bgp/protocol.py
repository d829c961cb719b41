"""The inter-domain routing protocol: path-vector BGP at AS granularity.

One :class:`BgpSpeaker` per domain holds an Adj-RIB-In per neighbor and
a Loc-RIB of best routes; the :class:`BgpProtocol` container wires
speakers together along the inter-domain links, runs the message-driven
propagation on the shared event scheduler, and — after convergence —
installs forwarding state into every router's FIB
(:meth:`BgpProtocol.install_routes`).

Forwarding installation follows hot-potato practice: each domain picks
its best route per prefix; the routers with an inter-domain link to the
chosen next-hop AS become egress borders; every other router forwards
towards its IGP-nearest egress border, using the IGP-installed route to
that border's loopback.  This keeps the data plane honest — if the IGP
hasn't learned a path to the egress, the BGP route is unusable and is
not installed.

A router's hot-potato egress decision depends only on the route's
next-hop AS, never on the prefix, so Loc-RIB prefixes are grouped by
``learned_from`` and the per-router IGP scan runs once per (router,
next-hop AS) group before bulk-installing every prefix in the group:
O(P×R×B) FIB lookups become O(R×B×A) for A next-hop ASes.  While a
domain's own egress map (its live links to each session peer) is the
one its rows were derived from, only *dirty* prefixes (Loc-RIB deltas
tracked by :meth:`BgpSpeaker.decide`) are withdrawn and reinstalled
instead of rebuilding every FIB from scratch — except on a router
whose IGP rows were rewritten since (``Fib.igp_generation``), which is
rebuilt alone.  Update propagation runs over *sessions*: a speaker
evaluates export policy only for the neighbors that have a speaker
(a default-routed stub fringe costs nothing), builds the prepended
route once per export, and coalesces all updates it sends
one neighbor at one tick into a single MRAI-style batch event
(per-prefix send order preserved); whenever a
:class:`~repro.net.simulator.MessagePerturbation` is active it sends
per message instead, so loss/jitter draws stay per message.

Grouping is answer-preserving because the per-(prefix, router) entry
is a pure function of (Loc-RIB route, egress links, IGP state), FIB
installs are per-source idempotent overwrites, and BGP-carried prefixes
never cover border-router loopbacks (other domains' address blocks are
disjoint), so install order cannot feed back into the hot-potato
lookups.  ``tests/oracles.py::seed_bgp_fib`` recomputes the BGP rows
one (prefix, router) at a time; ``tests/bgp`` holds every install to
it, and ``tests/oracles.py::reference_export`` is the per-neighbor
export loop every ``_export`` is compared with.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import Prefix
from repro.net.domain import Domain
from repro.net.errors import RoutingError
from repro.net.network import Network
from repro.net.node import FibEntry, RouteSource, Router
from repro.net.simulator import EventScheduler, MessageStats
from repro.obs import get_obs
from repro.bgp.egress import EgressCache, EgressLinks
from repro.bgp.policy import BgpPolicy
from repro.bgp.routes import (LOCAL_PREF_ORIGINATED, BgpRoute, BgpUpdate,
                              RouteScope)

#: Inter-domain message propagation delay (one MRAI-ish tick).
SESSION_DELAY = 1.0

#: One MRAI batch key: (sender ASN, receiver ASN, send tick).
BatchKey = Tuple[int, int, float]

#: What one domain's BGP rows read of the topology: per session peer,
#: the (local border, remote border) pairs of the live links to it.
EgressMap = List[Tuple[int, EgressLinks]]


class BgpSpeaker:
    """BGP state for one domain."""

    def __init__(self, domain: Domain) -> None:
        self.domain = domain
        self.adj_rib_in: Dict[Prefix, Dict[int, BgpRoute]] = {}
        self.loc_rib: Dict[Prefix, BgpRoute] = {}
        self.originated: Dict[Prefix, BgpRoute] = {}
        #: Loc-RIB deltas since the last FIB install (the incremental
        #: reinstall set); cleared by BgpProtocol after each install.
        self.dirty: Set[Prefix] = set()

    @property
    def asn(self) -> int:
        return self.domain.asn

    def originate(self, prefix: Prefix, scope: RouteScope = RouteScope.NORMAL) -> BgpRoute:
        route = BgpRoute(prefix=prefix, as_path=(self.asn,),
                         local_pref=LOCAL_PREF_ORIGINATED, scope=scope,
                         learned_from=None)
        self.originated[prefix] = route
        return route

    def withdraw_origination(self, prefix: Prefix) -> bool:
        return self.originated.pop(prefix, None) is not None

    def best_route(self, prefix: Prefix) -> Optional[BgpRoute]:
        return self.loc_rib.get(prefix)

    def decide(self, prefix: Prefix) -> Optional[BgpRoute]:
        """Run the decision process for *prefix*; returns the new best.

        Any change to the Loc-RIB entry (including its removal) marks
        the prefix dirty so the next install pass can reinstall just
        the deltas.
        """
        old = self.loc_rib.get(prefix)
        candidates: List[BgpRoute] = []
        if prefix in self.originated:
            candidates.append(self.originated[prefix])
        candidates.extend(self.adj_rib_in.get(prefix, {}).values())
        if not candidates:
            if self.loc_rib.pop(prefix, None) is not None:
                self.dirty.add(prefix)
            return None
        best = min(candidates, key=BgpRoute.selection_key)
        if best != old:
            self.dirty.add(prefix)
        self.loc_rib[prefix] = best
        return best

    def rib_size(self) -> int:
        """Loc-RIB size — the per-AS routing-state metric of experiment E5."""
        return len(self.loc_rib)


class BgpProtocol:
    """Message-driven path-vector routing across all domains."""

    def __init__(self, network: Network, scheduler: EventScheduler,
                 policy: Optional[BgpPolicy] = None) -> None:
        self.network = network
        self.scheduler = scheduler
        self.policy = policy if policy is not None else BgpPolicy()
        self.stats = MessageStats()
        self.obs = get_obs()
        self._c_announcements = self.obs.counter("bgp.announcements")
        self._c_withdrawals = self.obs.counter("bgp.withdrawals")
        self._c_install_lookups = self.obs.counter(
            "perf.bgp.install_fib_lookups")
        self._c_policy_checks = self.obs.counter("bgp.export.policy_checks")
        # Default-routed domains (scale-tier stubs) do not speak BGP:
        # they get no speaker, originate nothing, and — because exports
        # go to session peers only — receive nothing.  Their
        # reachability rides on static routes (repro.topogen.scale).
        self.speakers: Dict[int, BgpSpeaker] = {
            asn: BgpSpeaker(domain) for asn, domain in network.domains.items()
            if not domain.default_routed}
        #: Sessions torn down by resync, awaiting physical restoration.
        self._down_sessions: Set[Tuple[int, int]] = set()
        #: Speakers whose every router is crashed (fault injection).
        self._down_speakers: Set[int] = set()
        self._started = False
        #: Memoized (asn, next_hop_asn) -> egress links (repro.bgp.egress).
        self.egress_cache = EgressCache(network)
        #: MRAI-style per-(session, tick) update coalescing.
        self._pending_batches: Dict[BatchKey, List[BgpUpdate]] = {}
        #: The egress map each domain's rows were last derived from —
        #: the gate between full rebuilds and incremental dirty-set
        #: reinstalls.
        self._install_state: Dict[int, EgressMap] = {}
        #: ``Fib.igp_generation`` of each router at the last rebuild of
        #: its BGP rows — the per-router half of the same gate.
        self._igp_seen: Dict[str, int] = {}
        #: FIB lookups performed by forwarding-state installation.
        #: Plain int, always live (the perf.bgp.install_fib_lookups
        #: counter mirrors it under an enabled observability handle).
        self.install_fib_lookups = 0
        #: What export and the install gate did (see :meth:`gate_stats`).
        self.export_policy_checks = 0
        self.domains_rebuilt = 0
        self.routers_rebuilt = 0
        self.routers_patched = 0

    def speaker(self, asn: int) -> BgpSpeaker:
        try:
            return self.speakers[asn]
        except KeyError:
            raise RoutingError(f"no BGP speaker for AS{asn}") from None

    def add_speaker(self, domain: Domain) -> BgpSpeaker:
        """Register a domain added after protocol construction."""
        if domain.asn in self.speakers:
            raise RoutingError(f"speaker for AS{domain.asn} already exists")
        if domain.default_routed:
            raise RoutingError(
                f"AS{domain.asn} is default-routed; it does not speak BGP")
        speaker = BgpSpeaker(domain)
        self.speakers[domain.asn] = speaker
        return speaker

    def _session_peers(self, domain: Domain) -> List[int]:
        """The neighbors of *domain* that have a speaker, by ASN: whom
        it exports to and whose links its forwarding state reads.
        Computed at the call, so a speaker or a relationship added
        later needs no invalidation."""
        return sorted(self.speakers.keys() & domain.neighbor_asns())

    def gate_stats(self) -> Dict[str, int]:
        """Plain-int totals of what export and the install gate did."""
        return {"export_policy_checks": self.export_policy_checks,
                "domains_rebuilt": self.domains_rebuilt,
                "routers_rebuilt": self.routers_rebuilt,
                "routers_patched": self.routers_patched}

    # -- origination ------------------------------------------------------------
    def originate(self, asn: int, prefix: Prefix,
                  scope: RouteScope = RouteScope.NORMAL) -> None:
        """Have AS *asn* originate *prefix* and propagate it."""
        speaker = self.speaker(asn)
        speaker.originate(prefix, scope=scope)
        best = speaker.decide(prefix)
        if best is not None:
            self._export(speaker, prefix, best)

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """Withdraw *asn*'s origination of *prefix* and repropagate."""
        speaker = self.speaker(asn)
        if not speaker.withdraw_origination(prefix):
            return
        self._reconverge_prefix(speaker, prefix)

    def _reconverge_prefix(self, speaker: BgpSpeaker, prefix: Prefix) -> None:
        best = speaker.decide(prefix)
        if best is not None:
            self._export(speaker, prefix, best)
        else:
            self._export_withdrawal(speaker, prefix)

    # -- propagation ----------------------------------------------------------------
    def _export(self, speaker: BgpSpeaker, prefix: Prefix, route: BgpRoute) -> None:
        peers = self._session_peers(speaker.domain)
        self.export_policy_checks += len(peers)
        if self.obs.enabled:
            self._c_policy_checks.inc(len(peers))
        # One withdrawal and one announcement serve every peer; the
        # announcement (the prepended route) is built on first use.
        withdrawal = BgpUpdate(sender_asn=speaker.asn, prefix=prefix, route=None)
        announcement: Optional[BgpUpdate] = None
        for peer_asn in peers:
            if not self.policy.should_export(speaker.domain, route, peer_asn):
                # If policy stops exporting a route we may have exported
                # before (e.g. best changed from customer- to peer-learned),
                # the neighbor must hear a withdrawal.
                self._send(peer_asn, withdrawal)
                continue
            if announcement is None:
                # Originated routes already carry our ASN; learned routes
                # get it prepended on the way out (standard AS-path build).
                exported = route if route.originated else route.prepended(speaker.asn)
                announcement = BgpUpdate(sender_asn=speaker.asn, prefix=prefix,
                                         route=exported)
            self._send(peer_asn, announcement)

    def _export_withdrawal(self, speaker: BgpSpeaker, prefix: Prefix) -> None:
        withdrawal = BgpUpdate(sender_asn=speaker.asn, prefix=prefix, route=None)
        for peer_asn in self._session_peers(speaker.domain):
            self._send(peer_asn, withdrawal)

    def _send(self, to_asn: int, update: BgpUpdate) -> None:
        """Queue *update* for session peer *to_asn*."""
        if update.sender_asn in self._down_speakers:
            return  # crashed speakers fall silent
        self.stats.record_send()
        if self.obs.enabled:
            if update.is_withdrawal:
                self._c_withdrawals.inc()
            else:
                self._c_announcements.inc()
        if self.scheduler.message_perturbation is not None:
            # A perturbation draws loss/jitter per message, so batching
            # would change which updates are lost or reordered.
            self.scheduler.schedule_message(
                SESSION_DELAY, lambda: self._receive(to_asn, update))
            return
        key: BatchKey = (update.sender_asn, to_asn, self.scheduler.now)
        batch = self._pending_batches.get(key)
        if batch is None:
            batch = []
            self._pending_batches[key] = batch
            self.scheduler.schedule_message(
                SESSION_DELAY, lambda: self._deliver_batch(key))
        batch.append(update)

    def _deliver_batch(self, key: BatchKey) -> None:
        """Deliver one MRAI batch: every update one speaker queued for
        one neighbor at one tick, replayed in send order — so the
        per-prefix, per-session delivery order of per-message sending
        is preserved exactly."""
        updates = self._pending_batches.pop(key, None)
        if updates is None:
            return
        to_asn = key[1]
        for update in updates:
            self._receive(to_asn, update)

    def _receive(self, asn: int, update: BgpUpdate) -> None:
        if asn in self._down_speakers:
            return  # message lost: every router of the AS is down
        if (update.sender_asn, asn) in self._down_sessions:
            return  # message lost: the session it rode is down
        self.stats.record_delivery()
        speaker = self.speaker(asn)
        rib = speaker.adj_rib_in.get(update.prefix)
        if update.is_withdrawal:
            if rib is None or update.sender_asn not in rib:
                return
            del rib[update.sender_asn]
            if not rib:
                # Prune on last-neighbor delete: an empty per-prefix
                # dict would otherwise be iterated by every future
                # flush/size scan (the PR-9 leak fix).
                del speaker.adj_rib_in[update.prefix]
        else:
            if update.route is None:
                raise RoutingError(
                    f"announcement for {update.prefix} from "
                    f"AS{update.sender_asn} carries no route")
            imported = self.policy.accept(speaker.domain, update.route,
                                          update.sender_asn)
            if imported is None:
                if rib is not None and update.sender_asn in rib:
                    del rib[update.sender_asn]  # route became unacceptable
                    if not rib:
                        del speaker.adj_rib_in[update.prefix]
                else:
                    return
            else:
                previous = None if rib is None else rib.get(update.sender_asn)
                if previous == imported:
                    return
                if rib is None:
                    rib = {}
                    speaker.adj_rib_in[update.prefix] = rib
                rib[update.sender_asn] = imported
        old_best = speaker.loc_rib.get(update.prefix)
        new_best = speaker.decide(update.prefix)
        if new_best != old_best:
            if new_best is not None:
                self._export(speaker, update.prefix, new_best)
            else:
                self._export_withdrawal(speaker, update.prefix)

    # -- lifecycle --------------------------------------------------------------------
    def originate_domain_prefixes(self) -> None:
        """Every BGP-speaking domain announces its own address block."""
        for asn in sorted(self.speakers):
            self.originate(asn, self.network.domains[asn].prefix)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.originate_domain_prefixes()

    def converge(self, max_events: int = 2_000_000) -> int:
        """Drain BGP messages.  FIB installation is a separate step."""
        if not self._started:
            self.start()
        return self.scheduler.run_until_idle(max_events=max_events)

    # -- session maintenance ---------------------------------------------------------
    def resync_speakers(self) -> int:
        """Reconcile speaker liveness with the physical node state.

        A speaker is *crashed* once none of its domain's routers is up.
        Crashing loses all learned state — Adj-RIB-In and Loc-RIB are
        flushed, exactly as a real BGP restart would — and the speaker
        falls silent.  On revival it re-runs the decision process over
        its own originations and reannounces; routes it used to carry
        for others return only via neighbor reannouncement
        (:meth:`resync_sessions`).  Returns how many speakers changed
        liveness.  Run before :meth:`resync_sessions`.
        """
        changed = 0
        for asn in sorted(self.speakers):
            domain = self.network.domains[asn]
            alive = any(self.network.node(rid).up for rid in domain.routers)
            if not alive and asn not in self._down_speakers:
                self._down_speakers.add(asn)
                speaker = self.speakers[asn]
                # The flush empties the Loc-RIB wholesale, so every
                # previously-best prefix is a delta the next
                # incremental install must withdraw.
                speaker.dirty.update(speaker.loc_rib)
                speaker.adj_rib_in.clear()
                speaker.loc_rib.clear()
                changed += 1
            elif alive and asn in self._down_speakers:
                self._down_speakers.discard(asn)
                speaker = self.speakers[asn]
                for prefix in sorted(speaker.originated, key=Prefix.sort_key):
                    best = speaker.decide(prefix)
                    if best is not None:
                        self._export(speaker, prefix, best)
                changed += 1
        if changed and self.obs.enabled:
            self.obs.counter("bgp.speaker_transitions").inc(changed)
            self.obs.event("bgp.resync_speakers", t=self.scheduler.now,
                           changed=changed,
                           down=sorted(self._down_speakers))
            # Instant span (the flush itself is synchronous; its message
            # fallout drains under the enclosing reconvergence span).
            self.obs.span("bgp.resync", t=self.scheduler.now,
                          scope="speakers", changed=changed
                          ).end(t=self.scheduler.now)
        return changed

    def resync_sessions(self) -> int:
        """Reconcile BGP sessions with the physical topology.

        Sessions whose last live link vanished are torn down: routes
        learned over them are flushed and the decision process re-runs,
        propagating withdrawals or the new best routes.  Sessions that
        come *back* (their links restored) get a full re-announcement
        from both sides.  Returns the number of (speaker, neighbor)
        pairs flushed.  Run after topology changes, before reinstalling
        FIBs.
        """
        flushed_pairs = 0
        for asn in sorted(self.speakers):
            for neighbor_asn in self._session_peers(self.network.domains[asn]):
                alive = (bool(self._egress_links(asn, neighbor_asn))
                         and asn not in self._down_speakers
                         and neighbor_asn not in self._down_speakers)
                key = (asn, neighbor_asn)
                if alive:
                    if key in self._down_sessions:
                        self._down_sessions.discard(key)
                        if self.obs.enabled:
                            self.obs.counter("bgp.sessions_restored").inc()
                        self.reannounce(asn)
                    continue
                if key not in self._down_sessions and self.obs.enabled:
                    self.obs.counter("bgp.sessions_torn_down").inc()
                self._down_sessions.add(key)
                if self._flush_neighbor(asn, neighbor_asn):
                    flushed_pairs += 1
        if flushed_pairs and self.obs.enabled:
            self.obs.counter("bgp.sessions_flushed").inc(flushed_pairs)
            self.obs.span("bgp.resync", t=self.scheduler.now,
                          scope="sessions", flushed=flushed_pairs
                          ).end(t=self.scheduler.now)
        return flushed_pairs

    def _flush_neighbor(self, asn: int, neighbor_asn: int) -> bool:
        speaker = self.speaker(asn)
        flushed = False
        for prefix in sorted(speaker.adj_rib_in, key=Prefix.sort_key):
            rib = speaker.adj_rib_in[prefix]
            if neighbor_asn not in rib:
                continue
            del rib[neighbor_asn]
            if not rib:
                del speaker.adj_rib_in[prefix]  # prune: no empty rib dicts
            flushed = True
            old_best = speaker.loc_rib.get(prefix)
            new_best = speaker.decide(prefix)
            if new_best != old_best:
                if new_best is not None:
                    self._export(speaker, prefix, new_best)
                else:
                    self._export_withdrawal(speaker, prefix)
        return flushed

    def reannounce(self, asn: int) -> None:
        """Re-export every best route (after a session/link restoration)."""
        speaker = self.speaker(asn)
        for prefix in sorted(speaker.loc_rib, key=Prefix.sort_key):
            self._export(speaker, prefix, speaker.loc_rib[prefix])

    # -- forwarding-state installation --------------------------------------------------
    def _egress_links(self, asn: int, next_hop_asn: int) -> EgressLinks:
        """(local border, remote border) pairs over live links to
        *next_hop_asn* — memoized per topology version."""
        return self.egress_cache.links(asn, next_hop_asn)

    def install_routes(self) -> None:
        """Install converged BGP state into every router's FIB.

        A domain is rebuilt in full only when its own egress map moved
        since its last install; otherwise just its dirty Loc-RIB
        deltas are reinstalled.  Each FIB write reports itself to the
        network (``Network.forwarding_version``), so a pass that
        installs nothing leaves the flow fast path's walks stored.
        """
        lookups_before = self.install_fib_lookups
        for asn in sorted(self.speakers):
            self._install_domain(asn)
        if self.obs.enabled:
            delta = self.install_fib_lookups - lookups_before
            if delta:
                self._c_install_lookups.inc(delta)

    def _install_domain(self, asn: int) -> None:
        """Reinstall one domain's BGP routes, grouped by next-hop AS.

        A router's BGP rows are a function of the Loc-RIB, the domain's
        egress map (its live links to each session peer) and the IGP
        rows its hot-potato scan reads.  While the egress map is the
        one the domain's rows were derived from, a router whose IGP
        rows were not rewritten since keeps every non-dirty prefix's
        entry: only ``speaker.dirty`` is withdrawn and reinstalled
        there.  Every other router gets the whole Loc-RIB, after
        ``withdraw_all``.  The price of asking the domain instead of
        the world is one memoized egress read per session peer per
        pass.
        """
        speaker = self.speakers[asn]
        egress_map: EgressMap = [
            (peer_asn, self._egress_links(asn, peer_asn))
            for peer_asn in self._session_peers(speaker.domain)]
        routers = self._domain_routers(asn)
        seen = self._igp_seen
        if self._install_state.get(asn) == egress_map:
            rebuild = [router for router in routers if
                       seen.get(router.node_id) != router.fib4.igp_generation]
            patch = [router for router in routers if
                     seen.get(router.node_id) == router.fib4.igp_generation]
        else:
            rebuild, patch = routers, []
            self._install_state[asn] = egress_map
            self.domains_rebuilt += 1
            if self.obs.enabled:
                self.obs.counter("bgp.install.domains_rebuilt").inc()
        if rebuild:
            for router in rebuild:
                router.fib4.withdraw_all(RouteSource.BGP)
                seen[router.node_id] = router.fib4.igp_generation
            self._install_prefixes(
                asn, rebuild, sorted(speaker.loc_rib, key=Prefix.sort_key))
            self.routers_rebuilt += len(rebuild)
            if self.obs.enabled:
                self.obs.counter("bgp.install.routers_rebuilt").inc(len(rebuild))
        if patch and speaker.dirty:
            prefixes = sorted(speaker.dirty, key=Prefix.sort_key)
            for router in patch:
                fib = router.fib4
                for prefix in prefixes:
                    fib.withdraw(prefix, RouteSource.BGP)
            self._install_prefixes(asn, patch, prefixes)
            self.routers_patched += len(patch)
            if self.obs.enabled:
                self.obs.counter("perf.bgp.incremental_installs").inc()
                self.obs.counter("bgp.install.routers_patched").inc(len(patch))
        speaker.dirty.clear()

    def _install_prefixes(self, asn: int, routers: List[Router],
                          prefixes: List[Prefix]) -> None:
        """Install *asn*'s Loc-RIB routes for *prefixes* (sorted) on *routers*."""
        speaker = self.speakers[asn]
        # Group lists inherit the sorted prefix order.
        groups: Dict[int, List[Prefix]] = {}
        for prefix in prefixes:
            route = speaker.loc_rib.get(prefix)
            if route is None or route.originated:
                continue  # withdrawn, or internal (the IGP's job)
            groups.setdefault(self._learned_from(asn, prefix, route),
                              []).append(prefix)
        memo: Dict[Tuple[str, str], Optional[FibEntry]] = {}
        for next_hop_asn in sorted(groups):
            self._install_group(asn, routers, next_hop_asn,
                                groups[next_hop_asn], memo)

    def _domain_routers(self, asn: int) -> List[Router]:
        domain = self.network.domains[asn]
        return [self.network.node(rid) for rid in sorted(domain.routers)]

    def _learned_from(self, asn: int, prefix: Prefix, route: BgpRoute) -> int:
        next_hop_asn = route.learned_from
        if next_hop_asn is None:
            raise RoutingError(
                f"non-originated loc-rib route for {prefix} in AS{asn} "
                "has no learned_from neighbor")
        return next_hop_asn

    def _install_group(self, asn: int, routers: List[Router],
                       next_hop_asn: int, prefixes: List[Prefix],
                       memo: Dict[Tuple[str, str], Optional[FibEntry]]
                       ) -> None:
        egress = self._egress_links(asn, next_hop_asn)
        if not egress:
            return  # session exists but no live physical link
        remote_by_border = {local: remote for local, remote in egress}
        for router in routers:
            decision = self._router_egress(router, remote_by_border, memo)
            if decision is None:
                continue  # egress unreachable via IGP; routes unusable here
            next_hop, metric = decision
            fib = router.fib4
            for prefix in prefixes:
                fib.install(FibEntry(prefix=prefix, next_hop=next_hop,
                                     source=RouteSource.BGP, metric=metric))

    def _router_egress(self, router: Router, remote_by_border: Dict[str, str],
                       memo: Dict[Tuple[str, str], Optional[FibEntry]]
                       ) -> Optional[Tuple[str, float]]:
        """One router's egress decision towards one next-hop AS:
        ``(next hop, metric)``, or ``None`` if no egress is usable.
        A pure function of (router, egress links, IGP routes) — the
        invariant that makes grouped bulk-install answer-preserving.

        *memo* reuses the (router, border) IGP lookup across next-hop-AS
        groups within one install pass — safe because the pass only
        mutates BGP FIB entries, and BGP prefixes never cover border
        loopbacks, so the lookups it memoizes cannot change mid-pass.
        """
        if router.node_id in remote_by_border:
            return remote_by_border[router.node_id], 0.0
        # Hot potato: forward towards the IGP-nearest egress border.
        best: Optional[Tuple[float, str, str]] = None
        for border_id in sorted(remote_by_border):
            memo_key = (router.node_id, border_id)
            if memo_key in memo:
                igp_entry = memo[memo_key]
            else:
                self.install_fib_lookups += 1
                igp_entry = router.fib4.lookup(
                    self.network.node(border_id).ipv4)
                memo[memo_key] = igp_entry
            if igp_entry is None or igp_entry.next_hop is None:
                continue
            key = (igp_entry.metric, border_id, igp_entry.next_hop)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        metric, _border_id, next_hop = best
        return next_hop, metric

    # -- inspection --------------------------------------------------------------------
    def total_rib_size(self) -> int:
        return sum(s.rib_size() for s in self.speakers.values())

    def route_counts(self) -> Dict[int, int]:
        """Loc-RIB size per AS (experiment E5's routing-state metric)."""
        return {asn: s.rib_size() for asn, s in sorted(self.speakers.items())}

    def as_path_to(self, asn: int, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        route = self.speaker(asn).best_route(prefix)
        return route.as_path if route is not None else None
