"""Unit tests for the discrete-event kernel."""

import pytest

from repro.net.errors import ConvergenceError, SimulationError
from repro.net.simulator import EventScheduler, MessageStats


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(3.0, lambda: order.append("c"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(2.0, lambda: order.append("b"))
        sched.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sched = EventScheduler()
        order = []
        for name in "abc":
            sched.schedule(1.0, lambda n=name: order.append(n))
        sched.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(5.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sched = EventScheduler()
        sched.schedule(2.0, lambda: None)
        sched.step()
        seen = []
        sched.schedule(7.0 - sched.now, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [7.0]

    def test_events_scheduled_during_run_execute(self):
        sched = EventScheduler()
        order = []

        def outer():
            order.append("outer")
            sched.schedule(1.0, lambda: order.append("inner"))

        sched.schedule(1.0, outer)
        sched.run_until_idle()
        assert order == ["outer", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sched.run_until_idle()
        assert fired == []
        assert handle.cancelled

    def test_len_excludes_cancelled(self):
        sched = EventScheduler()
        keep = sched.schedule(1.0, lambda: None)
        drop = sched.schedule(2.0, lambda: None)
        drop.cancel()
        assert len(sched) == 1
        assert keep.time == 1.0


class TestLiveCounter:
    """__len__ is a maintained counter, not a heap scan; pin its semantics."""

    def test_len_tracks_schedule_cancel_and_step(self):
        sched = EventScheduler()
        handles = [sched.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert len(sched) == 5
        handles[1].cancel()
        handles[3].cancel()
        assert len(sched) == 3
        sched.step()  # fires handles[0]
        assert len(sched) == 2
        sched.run_until_idle()
        assert len(sched) == 0

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        sched.schedule(2.0, lambda: None)
        handle = sched.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        handle.cancel()
        assert len(sched) == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        sched.step()  # fires handle's event
        handle.cancel()  # too late; must not decrement
        assert len(sched) == 1

    def test_len_survives_reentrant_scheduling(self):
        sched = EventScheduler()

        def outer():
            sched.schedule(1.0, lambda: None)
            sched.schedule(2.0, lambda: None)

        sched.schedule(1.0, outer)
        assert len(sched) == 1
        sched.step()
        assert len(sched) == 2


class TestMessagePerturbation:
    def test_no_perturbation_is_plain_schedule(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_message(1.0, lambda: fired.append(1))
        sched.run_until_idle()
        assert fired == [1]
        assert sched.messages_lost == 0

    def test_full_loss_drops_every_message(self):
        sched = EventScheduler(seed=7)
        fired = []
        sched.set_message_perturbation(loss_prob=1.0)
        for _ in range(10):
            handle = sched.schedule_message(1.0, lambda: fired.append(1))
            assert handle.cancelled
        assert len(sched) == 0
        sched.run_until_idle()
        assert fired == []
        assert sched.messages_lost == 10

    def test_partial_loss_is_seeded_deterministic(self):
        def run(seed):
            sched = EventScheduler(seed=seed)
            sched.set_message_perturbation(loss_prob=0.5)
            delivered = []
            for i in range(40):
                sched.schedule_message(1.0, lambda i=i: delivered.append(i))
            sched.run_until_idle()
            return delivered, sched.messages_lost

        first = run(123)
        second = run(123)
        assert first == second
        delivered, lost = first
        assert lost == 40 - len(delivered)
        assert 0 < lost < 40  # p=0.5 over 40 trials: both outcomes occur

    def test_jitter_reorders_messages(self):
        sched = EventScheduler(seed=3)
        sched.set_message_perturbation(reorder_jitter=5.0)
        order = []
        for i in range(10):
            sched.schedule_message(1.0, lambda i=i: order.append(i))
        sched.run_until_idle()
        assert sorted(order) == list(range(10))
        assert order != list(range(10))  # jitter shuffled same-time sends
        assert sched.messages_reordered > 0

    def test_clear_restores_reliable_delivery(self):
        sched = EventScheduler()
        sched.set_message_perturbation(loss_prob=1.0)
        sched.clear_message_perturbation()
        fired = []
        sched.schedule_message(1.0, lambda: fired.append(1))
        sched.run_until_idle()
        assert fired == [1]

    def test_timers_are_never_perturbed(self):
        sched = EventScheduler()
        sched.set_message_perturbation(loss_prob=1.0, reorder_jitter=10.0)
        fired = []
        sched.schedule(1.0, lambda: fired.append(sched.now))
        sched.run_until_idle()
        assert fired == [1.0]

    def test_invalid_parameters_rejected(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.set_message_perturbation(loss_prob=1.5)
        with pytest.raises(SimulationError):
            sched.set_message_perturbation(loss_prob=-0.1)
        with pytest.raises(SimulationError):
            sched.set_message_perturbation(reorder_jitter=-1.0)


class TestRunModes:
    def test_step_returns_false_when_idle(self):
        assert EventScheduler().step() is False

    def test_run_until_stops_at_time(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(10.0, lambda: fired.append(10))
        processed = sched.run_until(5.0)
        assert processed == 1
        assert fired == [1]
        assert sched.now == 5.0

    def test_run_until_idle_counts_events(self):
        sched = EventScheduler()
        for _ in range(4):
            sched.schedule(1.0, lambda: None)
        assert sched.run_until_idle() == 4
        assert sched.events_processed == 4

    def test_event_budget_raises(self):
        sched = EventScheduler()

        def reschedule():
            sched.schedule(1.0, reschedule)

        sched.schedule(1.0, reschedule)
        with pytest.raises(ConvergenceError):
            sched.run_until_idle(max_events=50)

    def test_rng_is_seeded(self):
        a = EventScheduler(seed=42).rng.random()
        b = EventScheduler(seed=42).rng.random()
        assert a == b


class TestMessageStats:
    def test_counters(self):
        stats = MessageStats()
        stats.record_send(size=3)
        stats.record_send()
        stats.record_delivery()
        assert stats.sent == 2
        assert stats.bytes_sent == 4
        assert stats.delivered == 1

    def test_reset(self):
        stats = MessageStats()
        stats.record_send()
        stats.reset()
        assert stats.sent == 0 and stats.bytes_sent == 0
