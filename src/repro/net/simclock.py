"""Discrete-event simulation core: virtual clock and event queue.

Everything time-dependent in the library runs on this scheduler.  Events are
``[time, sequence, callback, args]`` entries in a binary heap; the sequence
number makes ordering deterministic when times tie, which keeps every
experiment bit-reproducible under a fixed seed.

Entries are plain lists rather than objects so ``heapq`` compares them
entirely in C (``(time, sequence)`` decides before the callback slot is ever
reached).  Cancellation nulls the callback slot in place, which is why the
entry must stay mutable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable

from repro.errors import SimulationError

EventCallback = Callable[..., None]

# Heap-entry slots: [time, sequence, callback-or-None, args].
_TIME = 0
_CALLBACK = 2


class EventHandle:
    """A cancellation handle for a scheduled event."""

    __slots__ = ("_entry", "_clock")

    def __init__(self, entry: list, clock: "SimClock") -> None:
        self._entry = entry
        self._clock = clock

    def cancel(self) -> bool:
        """Cancel the event; returns ``False`` when already run/cancelled."""
        if self._entry[_CALLBACK] is None:
            return False
        self._entry[_CALLBACK] = None
        self._clock._note_cancel()
        return True

    @property
    def time(self) -> float:
        """The virtual time the event is (was) scheduled for."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Was this event cancelled?"""
        return self._entry[_CALLBACK] is None


class SimClock:
    """The virtual clock plus its pending-event heap.

    The clock only moves when :meth:`run` (or :meth:`run_until`) pops
    events; callbacks scheduled *at the current time* run in scheduling
    order.  A hard event-count limit guards against runaway feedback loops
    in buggy protocols.
    """

    def __init__(self, max_events: int = 50_000_000) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._next_seq = 0
        self._max_events = max_events
        self._processed = 0
        self._live = 0
        self._tracer = None

    # -------------------------------------------------------------- queries
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        Maintained as a live counter (incremented on push, decremented on
        cancel/pop) so runner drain checks are O(1) instead of an O(heap)
        scan per call.
        """
        return self._live

    def _note_cancel(self) -> None:
        """An :class:`EventHandle` cancelled one of our live entries."""
        self._live -= 1

    @property
    def processed(self) -> int:
        """Total events executed so far."""
        return self._processed

    # ----------------------------------------------------------- scheduling
    def post(
        self, delay: float, callback: EventCallback, args: tuple = (), at=None
    ) -> list:
        """Queue ``callback(*args)`` at ``now + delay`` (or absolute ``at``).

        The one heap-entry constructor, and the whole cost of an event
        nobody will cancel — message deliveries use it directly.  Returns
        the entry, which only :class:`EventHandle` may interpret.

        Raises:
            SimulationError: for negative delays or an ``at`` before now.
        """
        if at is None:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past ({delay=})")
            at = self._now + delay
        elif at < self._now:
            raise SimulationError(
                f"cannot schedule at {at} before now={self._now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [at, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule(
        self, delay: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """:meth:`post` plus a cancellation handle."""
        return EventHandle(self.post(delay, callback, args), self)

    def schedule_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """:meth:`post` at absolute virtual ``time``, plus a handle."""
        return EventHandle(self.post(0.0, callback, args, time), self)

    # ------------------------------------------------------- instrumentation
    def attach_tracer(self, tracer) -> None:
        """Hook callback execution into a :class:`repro.obs.tracer.Tracer`.

        Pass ``None`` to detach.  With no tracer attached the dispatch
        path is the original code behind one ``is None`` check — the
        bench regression gate holds with tracing off.
        """
        self._tracer = tracer

    # ------------------------------------------------------------ execution
    def step(self) -> bool:
        """Pop and run the next event; ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            time, _, callback, args = entry
            if callback is None:
                continue
            # Null the slot so a late cancel() on the handle reports
            # "already run" instead of decrementing the live counter.
            entry[_CALLBACK] = None
            self._live -= 1
            self._now = time
            self._processed = processed = self._processed + 1
            if processed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events}); "
                    "likely a protocol feedback loop"
                )
            tracer = self._tracer
            if tracer is None:
                callback(*args)
            else:
                wall_start = perf_counter()
                callback(*args)
                tracer.callback_event(
                    callback, self._now, perf_counter() - wall_start
                )
            return True
        return False

    def run(self) -> None:
        """Drain the queue completely."""
        while self.step():
            pass

    def run_until(self, time: float) -> None:
        """Run every event scheduled strictly before or at ``time``.

        The clock is advanced to exactly ``time`` afterwards, even when no
        event lands on it.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to {time} from {self._now}"
            )
        heap = self._heap
        while heap:
            head = heap[0]
            if head[_CALLBACK] is None:
                heappop(heap)
                continue
            if head[_TIME] > time:
                break
            self.step()
        self._now = time

    def run_for(self, duration: float) -> None:
        """Run events for ``duration`` more virtual seconds."""
        self.run_until(self._now + duration)
