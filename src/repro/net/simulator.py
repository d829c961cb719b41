"""Discrete-event simulation kernel.

Routing protocols in this library are message driven: a protocol
schedules message deliveries on the shared :class:`EventScheduler`, and
the kernel runs callbacks in timestamp order.  Ties break by insertion
sequence, which keeps runs deterministic for a fixed topology and seed.

The kernel is intentionally small.  ``run_until_idle`` is the workhorse:
protocol convergence in this library means "the event queue drained",
with a configurable event budget as a divergence backstop.

Pending events sit in one global binary heap ordered by ``(time,
insertion-seq)``; cancelled events stay in the heap and are skipped
when they surface.  ``tests/net/test_simulator_properties.py`` checks
the fired sequence against a stable sort of ``(time, seq)``.

Fault injection hooks in at two points:

* :meth:`EventScheduler.schedule_message` is the send path protocols
  use for their wire messages.  While a
  :class:`MessagePerturbation` is active (installed by
  :class:`repro.faults.FaultInjector` for a loss window), each message
  is independently dropped with ``loss_prob`` or delayed by a uniform
  jitter drawn from ``[0, reorder_jitter]`` — both from the scheduler's
  own seeded RNG, so perturbed runs stay reproducible.
* Timers and fault events themselves use plain :meth:`schedule` and are
  never perturbed.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.net.errors import ConvergenceError, SimulationError
from repro.obs import MetricSampler, Observability, SpanContext, get_obs

Callback = Callable[[], None]


class ClockDriven:
    """Protocol for objects pulled on every scheduler clock advance.

    Implemented by :class:`repro.measure.ProbeEngine`;
    :class:`repro.obs.MetricSampler` has the same shape but keeps its
    dedicated slot (probes must observe *before* metric sampling).
    """

    def on_advance(self, now: float) -> None:  # pragma: no cover - protocol
        raise NotImplementedError


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Set once the event has been popped for execution.
    finished: bool = field(default=False, compare=False)
    #: False for events that never entered the queue (dropped messages).
    queued: bool = field(default=True, compare=False)
    #: Span context captured at schedule time (scheduler-carried
    #: propagation): the callback runs with this context active, so
    #: message cascades parent under the span that sent them.
    span_ctx: Optional[SpanContext] = field(default=None, compare=False)


class EventHandle:
    """Returned by :meth:`EventScheduler.schedule`; allows cancellation."""

    __slots__ = ("_event", "_scheduler")

    def __init__(self, event: _Event,
                 scheduler: Optional["EventScheduler"] = None) -> None:
        self._event = event
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        event = self._event
        if event.cancelled or event.finished:
            return
        event.cancelled = True
        if event.queued and self._scheduler is not None:
            scheduler = self._scheduler
            scheduler._live -= 1  # noqa: SLF001 - handle owns the event
            if scheduler.obs.enabled:
                scheduler._c_cancelled.inc()  # noqa: SLF001

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


@dataclass
class MessagePerturbation:
    """An active message-fault window: loss probability and reorder jitter."""

    loss_prob: float = 0.0
    reorder_jitter: float = 0.0


class EventScheduler:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Seed for the scheduler's :class:`random.Random`, which protocols
        use for jitter so that independent runs are reproducible.
    """

    #: Read by bench/harness.py::provenance; goes when that block does.
    queue_kind = "heap"

    def __init__(self, seed: int = 0,
                 obs: Optional[Observability] = None) -> None:
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: Count of scheduled, not-yet-fired, not-cancelled events.
        self._live = 0
        self._perturbation: Optional[MessagePerturbation] = None
        self.messages_lost = 0
        self.messages_reordered = 0
        #: Observability handle, bound at construction (see repro.obs).
        #: Metrics are cached once so the enabled path stays cheap.
        self.obs = obs if obs is not None else get_obs()
        #: Optional metric sampler driven by clock advances (see
        #: repro.obs.sampler); None unless attached, so the disabled
        #: path pays one attribute check.
        self._sampler: Optional[MetricSampler] = None
        #: Optional probe engine (see repro.measure.engine) driven the
        #: same lazy way; typed loosely to avoid importing repro.measure
        #: (which imports this module).  Probes fire *before* the
        #: sampler so a metric tick at the same instant already sees the
        #: probe round's counter updates.
        self._probes: Optional[ClockDriven] = None
        self._c_scheduled = self.obs.counter("scheduler.events_scheduled")
        self._c_fired = self.obs.counter("scheduler.events_fired")
        self._c_cancelled = self.obs.counter("scheduler.events_cancelled")
        self._c_dropped = self.obs.counter("scheduler.messages_dropped")
        self._c_reordered = self.obs.counter("scheduler.messages_reordered")
        self._g_depth = self.obs.gauge("scheduler.queue_depth_max")

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __len__(self) -> int:
        # O(1): a live-event counter maintained by schedule/cancel/pop,
        # instead of scanning the heap for cancelled entries.
        return self._live

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule *callback* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = _Event(time=self._now + delay, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, event)
        self._live += 1
        if self.obs.enabled:
            self._c_scheduled.inc()
            self._g_depth.set_max(self._live)
            event.span_ctx = self.obs.current_span_context()
        return EventHandle(event, self)

    # -- message perturbation (fault injection) -----------------------------
    @property
    def message_perturbation(self) -> Optional[MessagePerturbation]:
        return self._perturbation

    def set_message_perturbation(self, loss_prob: float = 0.0,
                                 reorder_jitter: float = 0.0) -> None:
        """Start perturbing protocol messages (loss and/or reordering)."""
        if not 0.0 <= loss_prob <= 1.0:
            raise SimulationError(f"loss_prob must be in [0, 1], got {loss_prob}")
        if reorder_jitter < 0.0:
            raise SimulationError(f"reorder_jitter must be >= 0, got {reorder_jitter}")
        self._perturbation = MessagePerturbation(loss_prob=loss_prob,
                                                 reorder_jitter=reorder_jitter)

    def clear_message_perturbation(self) -> None:
        self._perturbation = None

    def schedule_message(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule a protocol *message* delivery *delay* from now.

        Unlike :meth:`schedule`, message deliveries are subject to the
        active :class:`MessagePerturbation`: they may be dropped (the
        returned handle is born cancelled and the message never fires)
        or delayed by a random jitter, which reorders them relative to
        messages sent on other links.
        """
        perturbation = self._perturbation
        if perturbation is not None:
            if (perturbation.loss_prob > 0.0
                    and self.rng.random() < perturbation.loss_prob):
                self.messages_lost += 1
                if self.obs.enabled:
                    self._c_dropped.inc()
                event = _Event(time=self._now + delay, seq=next(self._seq),
                               callback=callback, cancelled=True, queued=False)
                return EventHandle(event, self)
            if perturbation.reorder_jitter > 0.0:
                jitter = self.rng.uniform(0.0, perturbation.reorder_jitter)
                if jitter > 0.0:
                    self.messages_reordered += 1
                    if self.obs.enabled:
                        self._c_reordered.inc()
                delay += jitter
        return self.schedule(delay, callback)

    def _pop_next(self) -> Optional[_Event]:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                event.finished = True
                self._live -= 1
                return event
        return None

    def attach_sampler(self, sampler: MetricSampler) -> None:
        """Drive *sampler* from this scheduler's clock advances.

        The sampler is pulled, not scheduled: it emits its ticks from
        :meth:`step` / :meth:`run_until` clock updates, so an attached
        sampler never keeps the queue alive during ``run_until_idle``.
        """
        self._sampler = sampler
        sampler.on_advance(self._now)

    def attach_probe_engine(self, engine: ClockDriven) -> None:
        """Drive *engine* from this scheduler's clock advances.

        Same pull contract as :meth:`attach_sampler`: probe rounds fire
        from :meth:`step` / :meth:`run_until` clock updates rather than
        queued events, so an armed probe plan never keeps the queue
        alive during ``run_until_idle`` (convergence still means "the
        queue drained") and never overruns a fault epoch's
        ``run_until`` target.
        """
        self._probes = engine
        engine.on_advance(self._now)

    def detach_probe_engine(self) -> None:
        self._probes = None

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        event = self._pop_next()
        if event is None:
            return False
        self._now = event.time
        self.events_processed += 1
        if self.obs.enabled:
            self._c_fired.inc()
        if self._probes is not None:
            self._probes.on_advance(self._now)
        if self._sampler is not None:
            self._sampler.on_advance(self._now)
        ctx = event.span_ctx
        if ctx is None:
            event.callback()
        else:
            self.obs.push_span_context(ctx)
            try:
                event.callback()
            finally:
                self.obs.pop_span_context()
        return True

    def run_until_idle(self, max_events: int = 2_000_000) -> int:
        """Drain the queue; returns the number of events processed.

        Raises :class:`ConvergenceError` if more than *max_events* fire,
        which in practice means a protocol is oscillating.
        """
        observed = self.obs.enabled
        if observed:
            wall_t0 = time.perf_counter()
            sim0 = self._now
        processed = 0
        while self.step():
            processed += 1
            if processed > max_events:
                raise ConvergenceError(
                    f"event budget exhausted after {max_events} events; "
                    "a protocol is likely not converging")
        if observed:
            wall_ms = (time.perf_counter() - wall_t0) * 1000.0
            self.obs.histogram("scheduler.drain_wall_ms").observe(wall_ms)
            self.obs.event("scheduler.drain", t=self._now, events=processed,
                           sim_elapsed=self._now - sim0, wall_ms=wall_ms)
        return processed

    def run_until(self, time: float, max_events: int = 2_000_000) -> int:
        """Run events with timestamps <= *time*; advance the clock to *time*."""
        processed = 0
        while self._heap:
            head = self._peek_time()
            if head is None or head > time:
                break
            self.step()
            processed += 1
            if processed > max_events:
                raise ConvergenceError(
                    f"event budget exhausted after {max_events} events before t={time}")
        self._now = max(self._now, time)
        if self._probes is not None:
            self._probes.on_advance(self._now)
        if self._sampler is not None:
            self._sampler.on_advance(self._now)
        if self.obs.enabled:
            self.obs.event("scheduler.run_until", t=self._now, events=processed)
        return processed

    def _peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap:
            if not heap[0].cancelled:
                return heap[0].time
            heapq.heappop(heap)
        return None


@dataclass
class MessageStats:
    """Counters a protocol can keep to report its message complexity."""

    sent: int = 0
    delivered: int = 0
    bytes_sent: int = 0

    def record_send(self, size: int = 1) -> None:
        self.sent += 1
        self.bytes_sent += size

    def record_delivery(self) -> None:
        self.delivered += 1

    def reset(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.bytes_sent = 0
