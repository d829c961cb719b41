"""Execute a :class:`~repro.faults.plan.FaultPlan` against a network.

The injector is the experiment harness for the paper's failover claim.
For each *epoch* (batch of same-timestamp fault events) it:

1. advances the shared :class:`~repro.net.simulator.EventScheduler` to
   the epoch's time,
2. applies the faults (fails/restores links, crashes/recovers nodes,
   toggles message perturbation) and notifies the control planes,
3. runs the caller's *workload* against the still-stale forwarding
   state — the **transient** measurement, capturing the packets that
   black-hole between failure and reconvergence,
4. drains the scheduler (control-plane reconvergence), records the
   reconvergence time, reinstalls FIBs and rebuilds any registered
   IPvN deployments,
5. runs the workload again — the **recovered** measurement.

Transient measurement is honest because fault application never marks
deployments dirty: probes in step 3 really do traverse the pre-fault
FIBs, exactly as data packets would before routing reacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.net.errors import FaultError
from repro.net.link import Link
from repro.core.metrics import FaultEpochReport, ReachabilityReport
from repro.core.orchestrator import Orchestrator
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

#: A workload probes reachability against current forwarding state.
Workload = Callable[[], ReachabilityReport]


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault, for the injector's audit log."""

    time: float
    description: str

    def __str__(self) -> str:
        return f"t={self.time:g}: {self.description}"


class FaultInjector:
    """Applies a :class:`FaultPlan` to an orchestrator's network.

    Parameters
    ----------
    orchestrator:
        Owns the network, scheduler, and control planes to fault.
    plan:
        The schedule to execute; validated against the network eagerly.
    deployments:
        :class:`~repro.vnbone.deployment.VnDeployment` instances to
        rebuild after each epoch reconverges (their vN-Bones must adapt
        to the new topology).
    """

    def __init__(self, orchestrator: Orchestrator, plan: FaultPlan,
                 deployments: Iterable[object] = ()) -> None:
        plan.validate(orchestrator.network)
        self.orchestrator = orchestrator
        self.plan = plan
        self.deployments: Sequence[object] = tuple(deployments)
        self.records: List[FaultRecord] = []
        self.epoch_reports: List[FaultEpochReport] = []
        #: Pool of links failed by node crashes, still awaiting repair.
        #: A shared pool (not per-victim lists) so a link between two
        #: crashed nodes is restored when its *last* endpoint recovers.
        self._crash_failed: List[Link] = []
        self._played = False

    # -- execution ------------------------------------------------------------
    def play(self, workload: Optional[Workload] = None,
             max_events: int = 5_000_000) -> List[FaultEpochReport]:
        """Run the whole plan; one :class:`FaultEpochReport` per epoch.

        Plan times are *scenario-relative*: an event ``at=10.0`` fires
        ten time units after ``play()`` begins (initial convergence may
        already have advanced the absolute clock arbitrarily far).
        Reported times are absolute simulation time.

        *workload* is called twice per epoch — before and after
        reconvergence — to measure transient loss and recovered
        delivery.  Pass None to just mutate topology.  Its packets take
        the same forwarding path as any other traffic: the flow fast
        path replays repeats, and drops its stored walks whenever the
        state they read changes (a link or node fault, and every FIB row
        the reinstall writes, move ``Network.forwarding_version``).
        """
        if self._played:
            raise FaultError(
                "this injector already played its plan; construct a new one "
                "(fault application is stateful and not idempotent)")
        self._played = True
        scheduler = self.orchestrator.scheduler
        if not self.orchestrator._converged:  # noqa: SLF001 - injector drives lifecycle
            self.orchestrator.converge(max_events=max_events)
        reports = self._play_epochs(workload, max_events, scheduler.now)
        self.epoch_reports = reports
        return reports

    def _play_epochs(self, workload: Optional[Workload], max_events: int,
                     start: float) -> List[FaultEpochReport]:
        scheduler = self.orchestrator.scheduler
        obs = self.orchestrator.obs
        reports: List[FaultEpochReport] = []
        for epoch_index, (time, events) in enumerate(self.plan.epochs()):
            target = start + time
            if target < scheduler.now:
                raise FaultError(
                    f"fault epoch at t={time} (absolute {target}) is in the "
                    f"past (now={scheduler.now}); reconvergence overran the "
                    "next epoch — space the plan out")
            scheduler.run_until(target, max_events=max_events)
            report = FaultEpochReport(time=scheduler.now)
            # The epoch span is the causal root the offline analyzer
            # extracts critical paths from: fault.apply children (which
            # in turn parent IGP hold-down timers), the transient and
            # recovered workload phases, the reconvergence drain, and
            # the FIB/vN-Bone reinstallation all hang under it.
            with obs.span("fault.epoch", t=report.time,
                          epoch=epoch_index) as epoch_span:
                for event in events:
                    report.events.append(self._apply(event))
                if workload is not None:
                    with obs.span("fault.workload", t=scheduler.now,
                                  phase="transient") as wspan:
                        report.transient = workload()
                        wspan.end(t=scheduler.now)
                before = scheduler.events_processed
                with obs.span("fault.reconverge", t=scheduler.now) as rspan:
                    scheduler.run_until_idle(max_events=max_events)
                    rspan.end(t=scheduler.now,
                              events=scheduler.events_processed - before)
                report.reconverged_at = scheduler.now
                report.events_processed = scheduler.events_processed - before
                with obs.span("routes.install", t=scheduler.now) as ispan:
                    self.orchestrator.install_routes()
                    ispan.end(t=scheduler.now)
                for deployment in self.deployments:
                    deployment.rebuild()
                if workload is not None:
                    with obs.span("fault.workload", t=scheduler.now,
                                  phase="recovered") as wspan:
                        report.recovered = workload()
                        wspan.end(t=scheduler.now)
                epoch_span.end(t=scheduler.now,
                               faults=len(report.events),
                               reconverged_at=report.reconverged_at,
                               reconvergence_time=report.reconvergence_time)
            reports.append(report)
            if obs.enabled:
                obs.counter("faults.epochs").inc()
                obs.histogram("faults.reconvergence_sim_time").observe(
                    report.reconvergence_time)
                obs.event("fault.epoch", t=report.time,
                          faults=len(report.events),
                          reconverged_at=report.reconverged_at,
                          reconvergence_time=report.reconvergence_time,
                          events_processed=report.events_processed)
        return reports

    # -- fault application -----------------------------------------------------
    def _apply(self, event: FaultEvent) -> str:
        handler = {
            FaultKind.LINK_DOWN: self._apply_link_down,
            FaultKind.LINK_UP: self._apply_link_up,
            FaultKind.NODE_CRASH: self._apply_node_crash,
            FaultKind.NODE_RECOVER: self._apply_node_recover,
            FaultKind.LOSS_START: self._apply_loss_start,
            FaultKind.LOSS_END: self._apply_loss_end,
        }[event.kind]
        obs = self.orchestrator.obs
        now = self.orchestrator.scheduler.now
        # Entered span: timers the control planes arm while reacting
        # (IGP hold-down) parent under this fault application.
        with obs.span("fault.apply", t=now, fault=event.kind.value,
                      target=list(event.target)) as span:
            handler(event)
            description = event.describe()
            span.end(t=self.orchestrator.scheduler.now)
        self.records.append(FaultRecord(time=self.orchestrator.scheduler.now,
                                        description=description))
        if obs.enabled:
            obs.counter("faults.applied").inc()
            obs.event("fault.apply", t=self.orchestrator.scheduler.now,
                      fault=event.kind.value, target=list(event.target),
                      description=description)
        return description

    def _apply_link_down(self, event: FaultEvent) -> None:
        link = self._link(event)
        if not link.up:
            return  # already down (e.g. its endpoint crashed first)
        link.fail()
        self.orchestrator.notify_link_change(link)

    def _apply_link_up(self, event: FaultEvent) -> None:
        link = self._link(event)
        if link.up:
            return
        network = self.orchestrator.network
        if not (network.node(link.a).up and network.node(link.b).up):
            raise FaultError(
                f"cannot restore {link.a}<->{link.b}: an endpoint is crashed "
                "(recover the node instead)")
        link.restore()
        self.orchestrator.notify_link_change(link)

    def _apply_node_crash(self, event: FaultEvent) -> None:
        node_id = event.target[0]
        network = self.orchestrator.network
        if not network.node(node_id).up:
            return
        failed = network.crash_node(node_id)
        self._crash_failed.extend(failed)
        for link in failed:
            self.orchestrator.notify_link_change(link)
        self.orchestrator.notify_node_change(node_id)

    def _apply_node_recover(self, event: FaultEvent) -> None:
        node_id = event.target[0]
        network = self.orchestrator.network
        if network.node(node_id).up:
            return
        # Only crash-failed links incident to this node are candidates;
        # recover_node skips those whose far endpoint is still down.
        incident = [link for link in self._crash_failed
                    if node_id in (link.a, link.b)]
        restored = network.recover_node(node_id, incident)
        self._crash_failed = [link for link in self._crash_failed
                              if not link.up]
        for link in restored:
            self.orchestrator.notify_link_change(link)
        self.orchestrator.notify_node_change(node_id)

    def _apply_loss_start(self, event: FaultEvent) -> None:
        self.orchestrator.scheduler.set_message_perturbation(
            loss_prob=event.loss_prob, reorder_jitter=event.reorder_jitter)

    def _apply_loss_end(self, _event: FaultEvent) -> None:
        self.orchestrator.scheduler.clear_message_perturbation()

    def _link(self, event: FaultEvent) -> Link:
        link = self.orchestrator.network.link_between(*event.target)
        if link is None:
            raise FaultError(
                f"fault event targets nonexistent link {event.target}; "
                "was the plan validated against a different network?")
        return link
