"""Property-based tests for the discrete-event kernel.

These pin the invariants every protocol in the repo silently relies on:

* events fire in (time, insertion-seq) order no matter how schedule and
  cancel calls interleave;
* ``run_until(t)`` never executes an event stamped after *t*;
* cancellation is idempotent and the live-event counter (``len``)
  agrees with an independently maintained model at every step.

The suite runs under the fixed ``ci`` hypothesis profile (see
``tests/conftest.py``) so CI failures are reproducible.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.net.simulator import EventScheduler  # noqa: E402

# One interleaving step: schedule a new event with this delay (float op),
# or cancel an already-issued handle (int op, index modulo issued count).
_ops = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=60,
)


def _apply_ops(sched, ops, fired):
    """Run an op sequence; returns (handles, expected_live_count)."""
    handles = []
    live = set()
    for op in ops:
        if isinstance(op, float):
            idx = len(handles)
            handles.append(
                sched.schedule(op, lambda i=idx: fired.append(i)))
            live.add(idx)
        elif handles:
            idx = op % len(handles)
            handles[idx].cancel()
            live.discard(idx)
    return handles, live


class TestFiringOrder:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                     allow_nan=False, allow_infinity=False),
                           max_size=50))
    def test_events_fire_in_time_then_seq_order(self, delays):
        sched = EventScheduler()
        fired = []
        for idx, delay in enumerate(delays):
            sched.schedule(delay, lambda i=idx: fired.append(i))
        sched.run_until_idle()
        # All events scheduled up front: firing order must match sorting
        # by (time, insertion sequence).
        expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
        assert fired == expected

    @given(ops=_ops)
    def test_order_holds_under_cancellation_interleavings(self, ops):
        sched = EventScheduler()
        fired = []
        handles, live = _apply_ops(sched, ops, fired)
        sched.run_until_idle()
        assert set(fired) == live  # cancelled never fire, live always do
        times = [handles[i].time for i in fired]
        assert times == sorted(times)
        # Equal-time events keep insertion order.
        for (i, j) in zip(fired, fired[1:]):
            if handles[i].time == handles[j].time:
                assert i < j


class TestRunUntilBound:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           max_size=40),
           horizon=st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False))
    def test_run_until_never_overruns_horizon(self, delays, horizon):
        sched = EventScheduler()
        fired_times = []
        for delay in delays:
            sched.schedule(delay, lambda d=delay: fired_times.append(d))
        sched.run_until(horizon)
        assert all(t <= horizon for t in fired_times)
        assert sched.now == max([horizon] + fired_times)
        # Exactly the events at or before the horizon fired.
        assert sorted(fired_times) == sorted(d for d in delays if d <= horizon)


class TestCancellationAndLiveCount:
    @given(ops=_ops)
    def test_len_matches_model_after_interleaving(self, ops):
        sched = EventScheduler()
        fired = []
        _, live = _apply_ops(sched, ops, fired)
        assert len(sched) == len(live)
        sched.run_until_idle()
        assert len(sched) == 0

    @given(ops=_ops, repeats=st.integers(min_value=2, max_value=4))
    def test_cancellation_is_idempotent(self, ops, repeats):
        sched = EventScheduler()
        fired = []
        handles, live = _apply_ops(sched, ops, fired)
        # Re-cancel every already-cancelled handle several times over.
        for handle in handles:
            if handle.cancelled:
                for _ in range(repeats):
                    handle.cancel()
        assert len(sched) == len(live)
        sched.run_until_idle()
        assert set(fired) == live

    @given(ops=_ops)
    def test_cancel_after_drain_is_harmless(self, ops):
        sched = EventScheduler()
        fired = []
        handles, _ = _apply_ops(sched, ops, fired)
        sched.run_until_idle()
        for handle in handles:
            handle.cancel()  # events already fired or cancelled
        assert len(sched) == 0
        count = len(fired)
        sched.run_until_idle()
        assert len(fired) == count  # nothing re-fires


# Interleavings for the model-equivalence suite: schedule with a delay
# drawn from a coarse grid (forcing same-timestamp ties), or cancel an
# issued handle by index.
_tie_ops = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40).map(lambda n: n * 0.5),
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=60,
)


def _drive(ops, horizon=None):
    """Run one op sequence on the scheduler.

    Returns the fired event indices in order plus the final clock and
    live count, so it can be compared wholesale with :func:`_model`.
    """
    sched = EventScheduler()
    fired = []
    handles = []
    for op in ops:
        if isinstance(op, float):
            idx = len(handles)
            handles.append(sched.schedule(op, lambda i=idx: fired.append(i)))
        elif handles:
            handles[op % len(handles)].cancel()
    if horizon is None:
        sched.run_until_idle()
    else:
        sched.run_until(horizon)
    return fired, sched.now, len(sched)


def _model(ops, horizon=None):
    """What :func:`_drive` must return: the live events in a stable
    ``sorted((time, seq))`` order, cut at the horizon."""
    times = []
    cancelled = set()
    for op in ops:
        if isinstance(op, float):
            times.append(op)
        elif times:
            cancelled.add(op % len(times))
    order = sorted((time, seq) for seq, time in enumerate(times)
                   if seq not in cancelled)
    if horizon is None:
        fired = [seq for _, seq in order]
        return fired, (order[-1][0] if order else 0.0), 0
    fired = [seq for time, seq in order if time <= horizon]
    return fired, horizon, len(order) - len(fired)


class TestCalendarHeapEquivalence:
    """The scheduler's fired sequence equals a stable sort of
    ``(time, insertion seq)`` over the live events (the model the heap
    and the former calendar queue were both held to)."""

    @given(ops=_tie_ops)
    def test_identical_fired_sequence(self, ops):
        assert _drive(ops) == _model(ops)

    @given(ops=_tie_ops,
           horizon=st.floats(min_value=0.0, max_value=20.0,
                             allow_nan=False, allow_infinity=False))
    def test_identical_under_run_until(self, ops, horizon):
        assert _drive(ops, horizon) == _model(ops, horizon)

    @given(delays=st.lists(st.integers(min_value=0, max_value=6),
                           min_size=1, max_size=40))
    def test_same_timestamp_ties_break_by_insertion_seq(self, delays):
        # Integer delays guarantee heavy timestamp collisions; ties
        # must break by insertion sequence.
        fired, _, _ = _drive([float(d) for d in delays])
        assert fired == sorted(range(len(delays)),
                               key=lambda i: (delays[i], i))

    @given(ops=_tie_ops)
    def test_nested_scheduling_stays_equivalent(self, ops):
        # Events scheduled from inside callbacks join the same order:
        # the model inserts them with the next sequence number at the
        # time they are scheduled and keeps popping the minimum.
        sched = EventScheduler()
        fired = []
        pending = []  # the model: live (time, seq, label, delay)
        seqs = iter(range(10 ** 6))

        def make(idx, delay):
            def callback():
                fired.append(idx)
                if delay > 0.25:
                    sched.schedule(delay / 2.0,
                                   lambda: fired.append(-idx - 1))
            return callback

        handles = []
        for op in ops:
            if isinstance(op, float):
                idx = len(handles)
                handles.append(sched.schedule(op, make(idx, op)))
                pending.append((op, next(seqs), idx, op))
            elif handles:
                victim = op % len(handles)
                handles[victim].cancel()
                pending = [e for e in pending if e[2] != victim]
        sched.run_until_idle()

        expected = []
        now = 0.0
        while pending:
            event = min(pending)
            pending.remove(event)
            now, _seq, label, delay = event
            expected.append(label)
            if label >= 0 and delay > 0.25:
                pending.append((now + delay / 2.0, next(seqs),
                                -label - 1, 0.0))
        assert (fired, sched.now) == (expected, now)
