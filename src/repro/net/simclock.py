"""Discrete-event simulation core: virtual clock and event queue.

Everything time-dependent in the library runs on this scheduler.  Events are
``[time, sequence, callback, args]`` entries in a binary heap; the sequence
number makes ordering deterministic when times tie, which keeps every
experiment bit-reproducible under a fixed seed.

An entry whose ``args`` slot holds a list instead of a tuple is a *run*:
``callback(*call)`` for each argument tuple in the list, at one instant,
in order (:meth:`SimClock.post_run`).  A run of k takes k consecutive
sequence numbers, so it executes exactly as k separate entries would —
nothing else can be queued between consecutive numbers at one time —
while costing one heap entry and one :meth:`~SimClock.step`.  A network
fan-out whose deliveries share a delay is one run.  A single event keeps
its bare ``args`` tuple rather than a run of one: a deep heap (24k
pending timers and deliveries on a Zipf read load) would pay a tuple per
entry for it.

Entries are plain lists rather than objects so ``heapq`` compares them
entirely in C (``(time, sequence)`` decides before the callback slot is ever
reached).  Cancellation nulls the callback slot in place, which is why the
entry must stay mutable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

EventCallback = Callable[..., None]

# Heap-entry slots: [time, sequence, callback-or-None, args or run list].
_TIME = 0
_CALLBACK = 2


class EventHandle:
    """A cancellation handle for a scheduled event."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> bool:
        """Cancel the event; returns ``False`` when already run/cancelled."""
        if self._entry[_CALLBACK] is None:
            return False
        self._entry[_CALLBACK] = None
        return True


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

    # -------------------------------------------------------------- queries
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed(self) -> int:
        """Total heap entries executed so far (a run counts once)."""
        return self._processed

    # ----------------------------------------------------------- scheduling
    def post(
        self, delay: float, callback: EventCallback, args: tuple = ()
    ) -> list:
        """Queue ``callback(*args)`` at ``now + delay``.

        The whole cost of an event nobody will cancel.  Returns the
        entry, which only :class:`EventHandle` may interpret.

        Raises:
            SimulationError: for negative delays.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay=})")
        at = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [at, seq, callback, args]
        heappush(self._heap, entry)
        return entry

    def post_run(
        self, delay: float, callback: EventCallback, calls: list[tuple]
    ) -> None:
        """Queue ``callback(*call)`` for each of ``calls`` at ``now + delay``.

        One heap entry for the whole run, which :meth:`step` executes as
        one event; the calls take consecutive sequence numbers, so they
        run in order and ahead of anything queued after this one, exactly
        as ``len(calls)`` separate :meth:`post` calls would.  ``calls``
        must be a non-empty list (the entry's tag: a single event holds a
        tuple) and is kept, not copied; a run of one is queued as a
        single event.  A run has no cancellation handle.

        Raises:
            SimulationError: for negative delays.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay=})")
        at = self._now + delay
        seq = self._next_seq
        count = len(calls)
        self._next_seq = seq + count
        run = calls if count > 1 else calls[0]
        heappush(self._heap, [at, seq, callback, run])

    def schedule(
        self, delay: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """:meth:`post` plus a cancellation handle."""
        return EventHandle(self.post(delay, callback, args))

    # ------------------------------------------------------------ execution
    def step(self) -> bool:
        """Pop and run the next entry; ``False`` when the queue is empty.

        A run executes as one event: it counts once in :attr:`processed`.
        A call that raises ends the run there; the calls after it stay
        queued at the same instant, still ahead of anything queued later.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            time, seq, callback, args = entry
            if callback is None:
                continue
            # Null the slot so a late cancel() on the handle reports
            # "already run".
            entry[_CALLBACK] = None
            self._now = time
            self._processed = processed = self._processed + 1
            if processed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events}); "
                    "likely a protocol feedback loop"
                )
            if args.__class__ is tuple:
                callback(*args)
            else:  # a run, inline: no frame between step and a callback
                remaining = iter(args)
                try:
                    for call in remaining:
                        callback(*call)
                except BaseException:
                    rest = list(remaining)
                    if rest:
                        skipped = len(args) - len(rest)
                        heappush(heap, [time, seq + skipped, callback, rest])
                    raise
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
