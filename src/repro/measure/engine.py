"""The deterministic RTT probe engine.

A :class:`ProbeEngine` executes a :class:`~repro.measure.plan.ProbePlan`
against a live scenario.  It is *pulled* from the event scheduler's
clock advances (:meth:`EventScheduler.attach_probe_engine`), never
scheduled as queue events, for two composition reasons:

* ``run_until_idle`` drains the whole queue regardless of timestamps
  (convergence in this library means "the queue drained"), so queued
  probe ticks would fire mid-reconvergence and corrupt fault epochs'
  convergence accounting;
* a pending probe tick must not keep the queue alive or overrun a
  fault epoch's ``run_until`` target.

The pull contract instead fires every due round exactly when the clock
first reaches (or passes) its tick, which with a
:class:`~repro.faults.FaultInjector` gives the stream-order invariant
the catchment analyzer relies on: probes due at or before a fault
boundary ``t`` are emitted *before* that boundary's ``fault.apply``
event, because the injector's ``run_until(t)`` advances the clock (and
therefore fires the probes) before applying the fault.

Every probe is one real forwarding walk from the vantage —
loss during a blackhole epoch shows up as an undelivered sample (a gap
in the RTT series), not an exception.  Samples are recorded whether or
not observability is enabled; with it enabled each round runs under a
``probe.rtt``-parenting ``probe.round`` span and emits one ``probe.rtt``
event per probe.  Those events deliberately carry **no span ids**: any
other traced work shifts them, and keeping them out of the measurement
stream makes same-seed probe series and catchment reports
byte-identical whatever else the run traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.measure.oracle import DelayOracle
from repro.measure.plan import ProbePlan, ProbeTarget
from repro.net.errors import MeasureError
from repro.net.forwarding import ForwardingEngine
from repro.net.network import Network
from repro.net.packet import ipv4_packet
from repro.net.simulator import EventScheduler
from repro.obs import AbstractSpan, get_obs


@dataclass(frozen=True)
class ProbeSample:
    """One probe observation: what a user at *vantage* measured at *t*.

    ``rtt`` is twice the one-way delay-weighted walk latency (symmetric
    return assumption); ``None`` when the probe was not delivered.
    ``best_rtt``/``best_replica`` are the oracle's ground truth at
    probe time — the delay-closest live replica the network could have
    served — so ``rtt / best_rtt`` is the catchment's RTT inflation.
    """

    t: float
    round: int
    vantage: str
    target: str
    kind: str
    outcome: str
    rtt: Optional[float]
    latency: Optional[float]
    replica: Optional[str]
    best_replica: Optional[str]
    best_rtt: Optional[float]
    physical_hops: int
    faulted: bool

    @property
    def delivered(self) -> bool:
        return self.replica is not None

    def to_dict(self) -> Dict[str, object]:
        """Stable-key, JSON-safe form (the unified ``to_dict`` contract)."""
        return {"t": self.t, "round": self.round, "vantage": self.vantage,
                "target": self.target, "kind": self.kind,
                "outcome": self.outcome, "rtt": self.rtt,
                "latency": self.latency, "replica": self.replica,
                "best_replica": self.best_replica, "best_rtt": self.best_rtt,
                "physical_hops": self.physical_hops, "faulted": self.faulted}


class ProbeEngine:
    """Runs one probe plan on a scenario's scheduler clock.

    Parameters
    ----------
    scheduler:
        The scenario's :class:`EventScheduler`; the engine attaches to
        its clock advances when armed.
    forwarding:
        The :class:`ForwardingEngine` probes walk through (use the
        orchestrator's engine so probes see the same FIBs, fast path,
        and fault state as real traffic).
    network:
        The topology, for vantage/target resolution and the delay
        oracle.
    plan:
        The declarative probe schedule.
    replicas:
        Zero-arg callable returning the *live* replica node ids of the
        anycast service (e.g. ``deployment.live_members``).  Required
        when the plan declares anycast targets; consulted at every
        probe so ground truth tracks fault epochs.
    """

    def __init__(self, scheduler: EventScheduler,
                 forwarding: ForwardingEngine, network: Network,
                 plan: ProbePlan,
                 replicas: Optional[Callable[[], Iterable[str]]] = None
                 ) -> None:
        plan.validate(network)
        if (replicas is None
                and any(t.kind == "anycast" for t in plan.targets)):
            raise MeasureError(
                "plan declares anycast targets but no replicas callback "
                "was given")
        self.scheduler = scheduler
        self.forwarding = forwarding
        self.network = network
        self.plan = plan
        self.oracle = DelayOracle(network)
        self.samples: List[ProbeSample] = []
        self.obs = get_obs()
        self._replicas = replicas
        self._base = 0.0
        self._next_round = plan.rounds  # not armed yet
        self._armed = False

    # -- lifecycle -----------------------------------------------------------
    def arm(self) -> None:
        """Start the plan: round ticks become relative to the current
        sim time and the engine begins firing from clock advances
        (round 0 fires immediately when ``plan.start`` is 0)."""
        if self._armed:
            raise MeasureError("probe engine is already armed")
        self._armed = True
        self._base = self.scheduler.now
        self._next_round = 0
        self.scheduler.attach_probe_engine(self)

    def finish(self) -> None:
        """Advance the clock through any rounds still due, then detach.

        Call after the scenario's last fault epoch/workload so the plan
        tail (rounds scheduled past the final event) still fires.
        """
        if not self._armed:
            raise MeasureError("probe engine was never armed")
        if self._next_round < self.plan.rounds:
            self.scheduler.run_until(self._base + self.plan.final_tick)
        self.scheduler.detach_probe_engine()
        self._armed = False

    def tick(self, round_index: int) -> float:
        """Absolute sim time at which round *round_index* fires."""
        return self._base + self.plan.tick(round_index)

    def on_advance(self, now: float) -> None:
        """Scheduler pull hook: fire every round whose tick has been
        reached.  Multiple due rounds (a long clock jump) fire in
        order, each stamped with its own tick time."""
        while (self._next_round < self.plan.rounds
               and self.tick(self._next_round) <= now):
            index = self._next_round
            self._next_round += 1
            self._run_round(index, self.tick(index))

    # -- probing -------------------------------------------------------------
    def _run_round(self, index: int, t: float) -> None:
        obs = self.obs
        span: Optional[AbstractSpan] = None
        if obs.enabled:
            span = obs.span("probe.round", t=t, round=index,
                            probes=self.plan.probes_per_round).start(t=t)
        try:
            for vantage in self.plan.vantages:
                for target in self.plan.targets:
                    self._probe_one(index, t, vantage, target, span)
        finally:
            if span is not None:
                span.end(t=t)
        if obs.enabled:
            obs.counter("measure.rounds").inc()

    def _probe_one(self, index: int, t: float, vantage: str,
                   target: ProbeTarget, span: Optional[AbstractSpan]) -> None:
        node = self.network.node(vantage)
        packet = ipv4_packet(node.ipv4, target.dst)
        if span is not None:
            packet.span = span.context
        trace = self.forwarding.forward(packet, vantage)
        delivered = trace.delivered
        replica = trace.delivered_to if delivered else None
        rtt = 2.0 * trace.latency if delivered else None
        best = self._ground_truth(vantage, target)
        best_replica = best[0] if best is not None else None
        best_rtt = 2.0 * best[1] if best is not None else None
        sample = ProbeSample(
            t=t, round=index, vantage=vantage, target=target.name,
            kind=target.kind, outcome=trace.outcome.value, rtt=rtt,
            latency=trace.latency if delivered else None, replica=replica,
            best_replica=best_replica, best_rtt=best_rtt,
            physical_hops=trace.physical_hops, faulted=trace.faulted)
        self.samples.append(sample)
        obs = self.obs
        if obs.enabled:
            obs.counter("measure.probes_sent").inc()
            if delivered:
                obs.counter("measure.probes_delivered").inc()
                if rtt is not None:
                    obs.histogram("measure.rtt").observe(rtt)
            else:
                obs.counter("measure.probes_lost").inc()
            fields = sample.to_dict()
            # "t" rides on the event itself; "kind" names the event, so
            # the target kind travels as "target_kind".
            del fields["t"]
            fields["target_kind"] = fields.pop("kind")
            obs.event("probe.rtt", t=t, **fields)

    def _ground_truth(self, vantage: str, target: ProbeTarget
                      ) -> Optional[Tuple[str, float]]:
        if target.kind == "anycast":
            assert self._replicas is not None  # enforced at construction
            return self.oracle.best_replica(vantage, self._replicas())
        delay = self.oracle.delay(vantage, target.name)
        if delay is None:
            return None
        return (target.name, delay)

    # -- results -------------------------------------------------------------
    def series(self) -> Dict[str, object]:
        """The full probe series as one stable-key, JSON-safe document.

        Contains no span ids, no wall-clock fields, and no file paths,
        so same-seed series are byte-identical once JSON-dumped with
        sorted keys — at any worker count, and whether the flow fast
        path walks or replays each probe.
        """
        delivered = sum(1 for s in self.samples if s.delivered)
        return {"plan": self.plan.to_dict(),
                "probes": len(self.samples),
                "delivered": delivered,
                "lost": len(self.samples) - delivered,
                "samples": [s.to_dict() for s in self.samples]}
