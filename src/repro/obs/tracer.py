"""Structured tracing core: spans and instants in a bounded ring buffer.

The simulator's headline numbers (communication overhead, bootstrap
cost) are *flow* properties — who sent what to whom, and when in virtual
time — which end-of-run aggregate counters cannot explain.  A
:class:`Tracer` captures that flow as structured events, each stamped
with simclock virtual time, into a bounded ring buffer, so a trace of
any length costs bounded memory and the oldest events are evicted
first.  A recorded event is stored in 32 B: two slots of one flat list
— an interned *head* ``(name, phase, track, category)``, shared by
every event of one kind on one track, and its ``args``, packed as
``(keys, *values)`` — plus two doubles ``ts, dur`` in one
``array('d')``.  An event carries no wall-clock stamp (where the host's
time goes is perfbench's question); a :meth:`Tracer.span` keeps its
own wall cost in its ``wall_us`` arg.  Only :meth:`Tracer.rows` and
:func:`arg_of` read that stored form; everyone else sees
:class:`TraceEvent` rows whose ``args`` is a fresh dict.

Design rules:

* **Non-invasive**: nothing in the simulation calls the tracer directly.
  Events arrive through the existing hook surfaces — the router's
  observer protocol, the fault injector's optional observer slot and
  the deployment's tracer slot (see :mod:`repro.obs.hooks`).
* **Free when disabled**: with no tracer attached the hot paths are the
  exact pre-existing code (the hooks are ``None`` checks), and
  :func:`~repro.obs.hooks.install_tracing` attaches nothing for a
  disabled :class:`Tracer`; called directly, its record methods return
  immediately, allocating nothing.
* **Cheap when enabled**: a recorded event is two slots and two
  doubles written by C calls inside the record method — no constructor
  frame, no per-event track or head, no retained row
  (``tests/test_message_path.py`` counts the frames, the GC-tracked
  allocations and the bytes).
* **Deterministic virtual story**: virtual timestamps, event order, and
  counts are a pure function of the (seeded) run; only the phase
  spans' ``wall_us`` args vary across machines.  Tracing never
  schedules events or draws randomness, so simulated metrics stay
  byte-identical with tracing on (``tests/test_obs.py`` pins this).

Tracks name the timeline an event belongs to: ``("node", id)`` for
per-node timelines, ``("proto", name)`` for protocol-engine streams,
``("sim", name)`` for simulator-level streams (fault weather, phase
spans, storage series).  One tracer records one run: node
ids are unique only within a deployment, so :meth:`Tracer.bind_clock`
refuses a second clock.  The Chrome exporter turns track groups into
processes and tracks into threads (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from operator import itemgetter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simclock import SimClock

#: Default ring-buffer capacity (events).  Full, the slots and stamps
#: take 6.4 MB, plus one lap's distinct heads and ``args`` (DESIGN.md).
DEFAULT_CAPACITY = 200_000

#: Track groups (the Chrome exporter's processes).
NODE_GROUP = "node"
PROTO_GROUP = "proto"
SIM_GROUP = "sim"

#: Well-known simulator-level tracks.
CLOCK_TRACK = (SIM_GROUP, "clock")
FAULTS_TRACK = (SIM_GROUP, "faults")
PHASE_TRACK = (SIM_GROUP, "phases")
STORAGE_TRACK = (SIM_GROUP, "storage")

#: Event phases (Chrome trace-event vocabulary subset).
SPAN = "X"      # complete event: ts + dur
INSTANT = "i"   # point event
COUNTER = "C"   # sampled numeric series (Perfetto charts these)


class TraceEvent(NamedTuple):
    """One recorded event: an immutable seven-field row.

    Iterating a :class:`Tracer` builds these on demand from the ring's
    slots; keyword and positional construction work as for any
    ``NamedTuple``.

    Attributes:
        name: what happened (message kind, phase, fault…).
        phase: :data:`SPAN` (has a duration) or :data:`INSTANT`.
        ts: virtual-time start, seconds.
        dur: virtual-time duration, seconds (0 for instants).
        track: ``(group, key)`` timeline this event belongs to.
        category: coarse bucket (``send``/``deliver``/``fault``/…).
        args: extra key/values carried into the exporters.
    """

    name: str
    phase: str
    ts: float
    dur: float
    track: tuple
    category: str
    args: dict | None = None


#: What ``NamedTuple._make`` calls underneath, minus its Python frame.
_new_record = tuple.__new__

#: Ring slots per event: its interned head and its ``args``.
_STRIDE = 2

#: Doubles per event in the stamp column: ``ts`` and ``dur``.
_STAMPS = 2

#: Key set -> the one tuple every packed ``args`` with those keys shares.
_KEYS: dict[tuple, tuple] = {}


def _pack(args: dict) -> tuple:
    """``args`` as stored: ``(keys, *values)``, a snapshot of the dict."""
    keys = tuple(args)
    return (_KEYS.setdefault(keys, keys), *args.values())


def _lap(column, start: int, stride: int = 1) -> Iterator:
    """``column[start::stride]``, then the slots before ``start`` with
    the same offset: one field of every retained event, oldest first."""
    return chain(
        islice(column, start, None, stride),
        islice(column, start % stride, start, stride),
    )


def arg_of(args: dict | tuple | None, key: str, default: Any = None) -> Any:
    """``dict.get`` on an event's ``args``, a dict or the stored form."""
    if args.__class__ is not tuple:
        return args.get(key, default) if args else default
    keys = args[0]
    return args[keys.index(key) + 1] if key in keys else default


def node_track(node_id: int) -> tuple:
    """The per-node timeline track for ``node_id``."""
    return (NODE_GROUP, node_id)


def proto_track(name: str) -> tuple:
    """A protocol-engine stream track (e.g. ``reliability``)."""
    return (PROTO_GROUP, name)


class Tracer:
    """Bounded recorder of structured spans and instant events.

    Args:
        capacity: ring-buffer size in events; the oldest events are
            evicted once full (:attr:`evicted` counts them).
        enabled: a disabled tracer is a no-op sink — every record method
            returns immediately and :meth:`span` yields a shared
            ``nullcontext`` (no per-call allocation).
    """

    __slots__ = (
        "_ring",
        "_stamps",
        "_interned",
        "_capacity",
        "_enabled",
        "_recorded",
        "_clock",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("tracer capacity must be >= 1")
        # Event i is ring slots [i * _STRIDE, (i + 1) * _STRIDE) and
        # stamps [i * _STAMPS, (i + 1) * _STAMPS).
        self._ring: list = []
        self._stamps = array("d")
        # Head or packed ``args`` -> its one stored copy.  Cleared when
        # the ring wraps to slot 0, so it holds one lap's values at most.
        self._interned: dict[tuple, tuple] = {}
        self._capacity = capacity
        self._enabled = enabled
        self._recorded = 0
        self._clock: "SimClock | None" = None

    # --------------------------------------------------------------- state
    @property
    def enabled(self) -> bool:
        """Is this tracer recording?"""
        return self._enabled

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        return self._recorded

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self._recorded - len(self)

    def __len__(self) -> int:
        return len(self._ring) // _STRIDE

    def rows(self) -> Iterator[tuple]:
        """Stream the retained events, oldest first, without copying.

        Plain tuples of :class:`TraceEvent`'s fields as stored: ``args``
        is packed (``(keys, *values)`` or ``None``; see :func:`arg_of`).
        Composed of C iterators, no Python frame per row.
        """
        first = self.evicted % self._capacity
        ring = self._ring
        name, phase, track, category = (
            map(itemgetter(field), _lap(ring, first * _STRIDE, _STRIDE))
            for field in range(4)
        )
        args = _lap(ring, first * _STRIDE + 1, _STRIDE)
        # One iterator yields ts, dur in turn; zip pulls its arguments
        # left to right, so each lands in its own field.
        stamps = _lap(self._stamps, first * _STAMPS)
        return zip(name, phase, stamps, stamps, track, category, args)

    def __iter__(self) -> Iterator[TraceEvent]:
        for row in self.rows():
            args = row[-1]
            if args is not None:
                row = (*row[:-1], dict(zip(args[0], args[1:])))
            yield _new_record(TraceEvent, row)

    def bind_clock(self, clock: "SimClock") -> None:
        """Bind the run's clock, the default for ``ts``-less record calls.

        Raises:
            ObservabilityError: when already bound to a different clock.
                A tracer records one run; a second deployment's node ids
                would land on the first one's node tracks.
        """
        if self._clock is not None and self._clock is not clock:
            raise ObservabilityError(
                "tracer is already bound to another run's clock; "
                "trace each run with its own Tracer"
            )
        self._clock = clock

    # ------------------------------------------------------------ recording
    # The three record methods write the stored form inline, one frame
    # per event: the interned head and ``args`` into the ring and the
    # stamps into the column, appended while filling and over the oldest
    # event's once full.  A packed ``args`` tuple is interned; a dict is
    # packed and never interned.  Interning keeps one of several equal
    # values, and ``1``, ``1.0`` and ``True`` are equal, so only int and
    # text values may be passed packed.

    def instant(
        self,
        name: str,
        track: tuple,
        ts: float | None = None,
        category: str = "",
        args: dict | tuple | None = None,
    ) -> None:
        """Record a point event at virtual time ``ts`` (default: now).

        ``args``: a dict (snapshotted, never interned), or already packed
        by the caller with int and text values only (interned).
        """
        if not self._enabled:
            return
        if ts is None:
            ts = self._now()
        interned = self._interned
        recorded = self._recorded
        slot = recorded % self._capacity
        if not slot:  # a lap begins: drop the last lap's values
            interned.clear()
        if args is not None:
            if args.__class__ is tuple:
                args = interned.setdefault(args, args)
            else:
                args = _pack(args)
        head = (name, INSTANT, track, category)
        row = (interned.setdefault(head, head), args)
        if recorded < self._capacity:
            self._ring.extend(row)
            self._stamps.fromlist([ts, 0.0])
        else:  # full: overwrite the oldest event
            at = slot * _STRIDE
            self._ring[at : at + _STRIDE] = row
            at = slot * _STAMPS
            self._stamps[at : at + _STAMPS] = array("d", (ts, 0.0))
        self._recorded = recorded + 1

    def counter(
        self,
        name: str,
        track: tuple,
        values: dict[str, float],
        ts: float | None = None,
        category: str = "",
    ) -> None:
        """Record one sample of a numeric series (Chrome ``ph: "C"``).

        ``values`` maps series name → numeric sample; Perfetto stacks
        the series of one counter name into an area chart over time.
        Packed as a snapshot, never interned.
        """
        if not self._enabled:
            return
        if ts is None:
            ts = self._now()
        interned = self._interned
        recorded = self._recorded
        slot = recorded % self._capacity
        if not slot:
            interned.clear()
        head = (name, COUNTER, track, category)
        row = (interned.setdefault(head, head), _pack(values))
        if recorded < self._capacity:
            self._ring.extend(row)
            self._stamps.fromlist([ts, 0.0])
        else:
            at = slot * _STRIDE
            self._ring[at : at + _STRIDE] = row
            at = slot * _STAMPS
            self._stamps[at : at + _STAMPS] = array("d", (ts, 0.0))
        self._recorded = recorded + 1

    def complete(
        self,
        name: str,
        track: tuple,
        start: float,
        dur: float,
        category: str = "",
        args: dict | tuple | None = None,
    ) -> None:
        """Record a finished span: ``[start, start + dur]`` virtual time.

        ``args`` as for :meth:`instant`: a dict is never interned, a
        packed tuple (int and text values only) is.
        """
        if not self._enabled:
            return
        interned = self._interned
        recorded = self._recorded
        slot = recorded % self._capacity
        if not slot:
            interned.clear()
        if args is not None:
            if args.__class__ is tuple:
                args = interned.setdefault(args, args)
            else:
                args = _pack(args)
        head = (name, SPAN, track, category)
        row = (interned.setdefault(head, head), args)
        if recorded < self._capacity:
            self._ring.extend(row)
            self._stamps.fromlist([start, dur])
        else:
            at = slot * _STRIDE
            self._ring[at : at + _STRIDE] = row
            at = slot * _STAMPS
            self._stamps[at : at + _STAMPS] = array("d", (start, dur))
        self._recorded = recorded + 1

    def span(
        self,
        name: str,
        track: tuple = PHASE_TRACK,
        category: str = "phase",
        args: dict | None = None,
    ):
        """Context manager recording a span over the wrapped block.

        Virtual start/duration come from the bound clock; the span is
        recorded at exit, so nested spans land innermost-first (the
        Chrome exporter nests them by ``ts``/``dur``).  Works inside
        simclock callbacks — the clock's ``now`` is the event time.
        """
        if not self._enabled:
            return _NULL_CONTEXT
        return self._span(name, track, category, args)

    @contextmanager
    def _span(
        self, name: str, track: tuple, category: str, args: dict | None
    ) -> Iterator[None]:
        start = self._now()
        wall_start = perf_counter()
        try:
            yield
        finally:
            end = self._now()
            wall_us = round((perf_counter() - wall_start) * 1e6, 1)
            self.complete(
                name, track, start, end - start, category=category,
                args={**(args or {}), "wall_us": wall_us},
            )

    def callback_event(
        self, callback: object, ts: float, wall_dur: float
    ) -> None:
        """Record one callback execution (virtual dur is 0, wall cost in
        ``args``).  Nothing in the program calls it: it stays because
        ``perfbench/`` (frozen) names it among its ``obs.tracer.record``
        targets; perfbench's probe is the profiler."""
        if not self._enabled:
            return
        name = getattr(callback, "__qualname__", None) or repr(callback)
        self.complete(
            name,
            CLOCK_TRACK,
            ts,
            0.0,
            category="callback",
            args={"wall_us": round(wall_dur * 1e6, 1)},
        )

    # ------------------------------------------------------------ internals
    def _now(self) -> float:
        if self._clock is None:
            raise ObservabilityError(
                "tracer has no bound clock; pass ts= explicitly or "
                "bind_clock() first"
            )
        return self._clock.now


_NULL_CONTEXT = nullcontext()
