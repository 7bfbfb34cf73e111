"""Unit tests for the discrete-event clock."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.simclock import EventHandle, SimClock


class TestScheduling:
    def test_events_run_in_time_order(self):
        clock = SimClock()
        order: list[str] = []
        clock.schedule(2.0, lambda: order.append("late"))
        clock.schedule(1.0, lambda: order.append("early"))
        clock.run()
        assert order == ["early", "late"]
        assert clock.now == 2.0

    def test_ties_run_in_scheduling_order(self):
        clock = SimClock()
        order: list[int] = []
        for index in range(5):
            clock.schedule(1.0, lambda i=index: order.append(i))
        clock.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().schedule(-0.1, lambda: None)

    def test_nested_scheduling(self):
        clock = SimClock()
        seen: list[float] = []

        def outer():
            seen.append(clock.now)
            clock.schedule(0.5, lambda: seen.append(clock.now))

        clock.schedule(1.0, outer)
        clock.run()
        assert seen == [1.0, 1.5]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        clock = SimClock()
        fired: list[bool] = []
        handle = clock.schedule(1.0, lambda: fired.append(True))
        assert handle.cancel()
        clock.run()
        assert not fired

    def test_double_cancel_returns_false(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_handle_reports_time(self):
        clock = SimClock()
        handle = clock.schedule(3.0, lambda: None)
        assert handle.time == 3.0


class TestPendingCounter:
    """``pending`` is a live counter, not a heap scan."""

    def test_tracks_schedule_run_and_cancel(self):
        clock = SimClock()
        handles = [clock.schedule(float(i + 1), lambda: None) for i in range(3)]
        assert clock.pending == 3
        assert handles[1].cancel()
        assert clock.pending == 2
        clock.run_until(1.0)
        assert clock.pending == 1
        clock.run()
        assert clock.pending == 0
        assert clock.processed == 2

    def test_double_cancel_counts_once(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert clock.pending == 0

    def test_cancel_after_fire_is_noop(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        clock.run()
        assert not handle.cancel()
        assert clock.pending == 0


class TestBoundedRuns:
    def test_run_until_stops_at_boundary(self):
        clock = SimClock()
        fired: list[float] = []
        clock.schedule(1.0, lambda: fired.append(1.0))
        clock.schedule(5.0, lambda: fired.append(5.0))
        clock.run_until(2.0)
        assert fired == [1.0]
        assert clock.now == 2.0
        assert clock.pending == 1

    def test_run_until_includes_boundary_events(self):
        clock = SimClock()
        fired: list[float] = []
        clock.schedule(2.0, lambda: fired.append(2.0))
        clock.run_until(2.0)
        assert fired == [2.0]

    def test_run_for_advances_relative(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        clock.run_for(1.5)
        assert clock.now == 1.5
        clock.run_for(1.0)
        assert clock.now == 2.5

    def test_run_backwards_rejected(self):
        clock = SimClock()
        clock.run_for(5.0)
        with pytest.raises(SimulationError):
            clock.run_until(1.0)

    def test_step_returns_false_when_empty(self):
        assert not SimClock().step()

    def test_processed_counter(self):
        clock = SimClock()
        for _ in range(3):
            clock.schedule(1.0, lambda: None)
        clock.run()
        assert clock.processed == 3


class TestRunawayProtection:
    def test_event_budget_enforced(self):
        clock = SimClock(max_events=10)

        def feedback():
            clock.schedule(0.1, feedback)

        clock.schedule(0.1, feedback)
        with pytest.raises(SimulationError, match="budget"):
            clock.run()


class TestPost:
    def test_post_runs_like_schedule_and_returns_no_handle(self):
        clock = SimClock()
        order: list[str] = []
        token = clock.post(1.0, order.append, ("posted",))
        clock.schedule(1.0, order.append, "scheduled")
        assert not isinstance(token, EventHandle)
        assert clock.pending == 2
        clock.run()
        assert order == ["posted", "scheduled"]
        assert clock.processed == 2

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="in the past"):
            SimClock().post(-0.1, lambda: None)


#: Few distinct delays, so ties (broken by sequence number) are common.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["post", "schedule"]), _delays),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("run_until"), _delays),
    ),
    min_size=1,
    max_size=60,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_ops)
def test_post_schedule_interleavings_match_all_schedule_reference(ops):
    """Whatever mix of entry points queues the events, the run is the same.

    The subject uses the drawn entry point; the reference clock queues
    every event through ``schedule``.  Events queued by ``post`` cannot
    be cancelled, so cancels only ever name handle-bearing events.
    """
    subject, reference = SimClock(), SimClock()
    ran = {id(subject): [], id(reference): []}
    handles: list[tuple[EventHandle, EventHandle]] = []

    def fire(clock, label):
        ran[id(clock)].append((label, clock.now))
        if label % 4 == 0:  # a callback that queues a follow-up
            clock.post(0.5, fire, (clock, -label - 1))

    for label, (op, value) in enumerate(ops):
        if op == "post":
            subject.post(value, fire, (subject, label))
            reference.schedule(value, fire, reference, label)
        elif op == "schedule":
            handles.append(
                (
                    subject.schedule(value, fire, subject, label),
                    reference.schedule(value, fire, reference, label),
                )
            )
        elif op == "cancel" and handles:
            ours, theirs = handles[value % len(handles)]
            assert ours.cancel() == theirs.cancel()
            assert ours.time == theirs.time
        elif op == "run_until":
            subject.run_until(subject.now + value)
            reference.run_until(reference.now + value)
        assert subject.pending == reference.pending
        assert subject.processed == reference.processed
        assert subject.now == reference.now
    subject.run()
    reference.run()
    assert ran[id(subject)] == ran[id(reference)]
    assert subject.processed == reference.processed
    assert subject.pending == reference.pending == 0
