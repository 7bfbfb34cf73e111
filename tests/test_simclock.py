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


class TestRuns:
    def test_a_run_is_one_event_of_consecutive_calls(self):
        clock = SimClock()
        order: list[tuple[str, float]] = []
        log = lambda label: order.append((label, clock.now))  # noqa: E731
        clock.post(1.0, log, ("before",))
        clock.post_run(1.0, log, [("a",), ("b",), ("c",)])
        clock.post(1.0, log, ("after",))
        assert clock.pending == 3
        clock.run()
        assert order == [
            ("before", 1.0), ("a", 1.0), ("b", 1.0), ("c", 1.0),
            ("after", 1.0),
        ]  # fmt: skip
        assert clock.processed == 3
        assert clock.pending == 0

    def test_a_raise_leaves_the_rest_queued_ahead_of_later_posts(self):
        clock = SimClock()
        order: list[str] = []

        def call(label):
            order.append(label)
            if label == "b":
                clock.post(0.0, order.append, ("posted in b",))
                raise KeyError(label)

        clock.post_run(1.0, call, [("a",), ("b",), ("c",), ("d",)])
        with pytest.raises(KeyError):
            clock.run()
        assert order == ["a", "b"]
        assert clock.now == 1.0
        assert clock.pending == 2  # the rest of the run, the later post
        clock.post(0.0, order.append, ("posted after",))
        clock.run()
        assert order == [
            "a", "b", "c", "d", "posted in b", "posted after",
        ]  # fmt: skip
        assert clock.processed == 4

    def test_a_run_takes_one_sequence_number_per_call(self):
        clock = SimClock()
        clock.post_run(1.0, print, [(), (), ()])
        entry = clock.post(1.0, print)
        assert entry[1] == 3

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="in the past"):
            SimClock().post_run(-0.1, print, [()])


#: Few distinct delays, so ties (broken by sequence number) are common.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["post", "schedule"]), _delays),
        st.tuples(
            st.just("post_run"),
            _delays,
            st.integers(1, 4),  # calls in the run
            st.integers(-1, 3),  # index of the call that raises, if any
        ),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("run_until"), _delays),
    ),
    min_size=1,
    max_size=60,
)


class _Raised(Exception):
    pass


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_ops)
def test_post_schedule_interleavings_match_all_schedule_reference(ops):
    """Whatever mix of entry points queues the calls, the run is the same.

    The subject uses the drawn entry point; the reference clock queues
    every call through ``schedule``, one entry each, so it is the per-call
    contract a run must keep.  Events queued by ``post``/``post_run``
    cannot be cancelled, so cancels only ever name handle-bearing events.
    A call may raise; the subject's run then stops there and its rest
    stays queued.  ``processed`` and ``pending`` count a run once: the
    model tracks which entry each subject call belongs to.
    """
    subject, reference = SimClock(), SimClock()
    ran = {id(subject): [], id(reference): []}
    handles: list[tuple[EventHandle, EventHandle]] = []
    raisers: set[int] = set()
    #: subject entries: label -> entry id, entry id -> its calls' labels.
    entry_of: dict[int, int] = {}
    calls_of: dict[int, list[int]] = {}
    cancelled: set[int] = set()
    next_label = 0

    def queue_entry(labels: list[int]) -> None:
        entry = len(calls_of)
        calls_of[entry] = labels
        for label in labels:
            entry_of[label] = entry

    def fire(clock, label):
        ran[id(clock)].append((label, clock.now))
        if label >= 0 and label % 4 == 0:  # a callback that queues more
            if clock is subject:
                queue_entry([-label - 1])
            clock.post(0.5, fire, (clock, -label - 1))
        if label in raisers:
            if clock is subject:  # the rest of the run is a new entry
                calls = calls_of[entry_of[label]]
                rest = calls[calls.index(label) + 1 :]
                if rest:
                    queue_entry(rest)
            raise _Raised(label)

    def both(action) -> None:
        outcomes = []
        for clock in (subject, reference):
            try:
                action(clock)
                outcomes.append(None)
            except _Raised as error:
                outcomes.append(error.args)
        assert outcomes[0] == outcomes[1]

    def check_counts() -> None:
        done = {label for label, _ in ran[id(subject)]}
        assert subject.processed == len({entry_of[label] for label in done})
        queued = set(entry_of) - done - cancelled
        assert subject.pending == len({entry_of[label] for label in queued})
        assert subject.now == reference.now

    for op in ops:
        kind, value = op[0], op[1]
        label = next_label
        if kind == "post":
            next_label += 1
            queue_entry([label])
            subject.post(value, fire, (subject, label))
            reference.schedule(value, fire, reference, label)
        elif kind == "schedule":
            next_label += 1
            queue_entry([label])
            handles.append(
                (
                    subject.schedule(value, fire, subject, label),
                    reference.schedule(value, fire, reference, label),
                    label,
                )
            )
        elif kind == "post_run":
            size, raising = op[2], op[3]
            labels = list(range(label, label + size))
            next_label += size
            if 0 <= raising < size:
                raisers.add(labels[raising])
            queue_entry(labels)
            subject.post_run(value, fire, [(subject, x) for x in labels])
            for x in labels:
                reference.schedule(value, fire, reference, x)
        elif kind == "cancel" and handles:
            ours, theirs, named = handles[value % len(handles)]
            cancelled_now = ours.cancel()
            assert cancelled_now == theirs.cancel()
            assert ours.time == theirs.time
            if cancelled_now:
                cancelled.add(named)
        elif kind == "run_until":
            both(lambda clock: clock.run_until(clock.now + value))
        check_counts()
    while subject.pending or reference.pending:
        both(SimClock.run)
        check_counts()
    assert ran[id(subject)] == ran[id(reference)]
    assert subject.pending == reference.pending == 0
