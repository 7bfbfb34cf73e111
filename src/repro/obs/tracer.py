"""Structured tracing core: spans and instants in a bounded ring buffer.

The simulator's headline numbers (communication overhead, bootstrap
cost) are *flow* properties — who sent what to whom, and when in virtual
time — which end-of-run aggregate counters cannot explain.  A
:class:`Tracer` captures that flow as structured events, each stamped
with **both** simclock virtual time and a wall-clock stamp, into a
bounded ring buffer, so a trace of any length costs bounded memory and
the oldest events are evicted first.  The ring is one flat list, eight
slots per event, with ``args`` packed as ``(keys, *values)``; only
:meth:`Tracer.rows` and :func:`arg_of` read that stored form, everyone
else sees :class:`TraceEvent` rows whose ``args`` is a fresh dict.

Design rules:

* **Non-invasive**: nothing in the simulation calls the tracer directly.
  Events arrive through the existing hook surfaces — the router's
  observer protocol, the simclock's optional callback hook, the fault
  injector's optional tracer slot (see :mod:`repro.obs.hooks`).
* **Free when disabled**: with no tracer attached the hot paths are the
  exact pre-existing code (the hooks are ``None`` checks), and
  :func:`~repro.obs.hooks.install_tracing` attaches nothing for a
  disabled :class:`Tracer`; called directly, its record methods return
  immediately, allocating nothing.
* **Cheap when enabled**: a recorded event is eight slots written by
  one C call inside the record method — no constructor frame, no
  per-event track, no retained row (``tests/test_message_path.py``
  counts the frames and the GC-tracked allocations).
* **Deterministic virtual story**: virtual timestamps, event order, and
  counts are a pure function of the (seeded) run; only the ``wall``
  stamps vary across machines.  Tracing never schedules events or draws
  randomness, so simulated metrics stay byte-identical with tracing on
  (``tests/test_obs.py`` pins this).

Tracks name the timeline an event belongs to: ``("node", (label, id))``
for per-node timelines, ``("proto", (label, name))`` for protocol-engine
streams, ``("sim", name)`` for simulator-level streams (clock callbacks,
fault weather, phase spans).  The Chrome exporter turns track groups
into processes and tracks into threads (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simclock import SimClock

#: Default ring-buffer capacity (events); ~31 MB when full (DESIGN.md).
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
    """One recorded event: an immutable eight-field row.

    Iterating a :class:`Tracer` builds these on demand from the ring's
    slots; keyword and positional construction work as for any
    ``NamedTuple``.

    Attributes:
        name: what happened (message kind, callback qualname, phase…).
        phase: :data:`SPAN` (has a duration) or :data:`INSTANT`.
        ts: virtual-time start, seconds.
        dur: virtual-time duration, seconds (0 for instants).
        track: ``(group, key)`` timeline this event belongs to.
        category: coarse bucket (``send``/``deliver``/``fault``/…).
        wall: wall-clock stamp (``perf_counter`` seconds) at record time.
        args: extra key/values carried into the exporters.
    """

    name: str
    phase: str
    ts: float
    dur: float
    track: tuple
    category: str
    wall: float
    args: dict | None = None


#: What ``NamedTuple._make`` calls underneath, minus its Python frame.
_new_record = tuple.__new__

#: Ring slots per event.
_STRIDE = len(TraceEvent._fields)

#: Key set -> the one tuple every packed ``args`` with those keys shares.
_KEYS: dict[tuple, tuple] = {}


def _pack(args: dict) -> tuple:
    """``args`` as stored: ``(keys, *values)``, a snapshot of the dict."""
    keys = tuple(args)
    return (_KEYS.setdefault(keys, keys), *args.values())


def arg_of(args: dict | tuple | None, key: str, default: Any = None) -> Any:
    """``dict.get`` on an event's ``args``, a dict or the stored form."""
    if args.__class__ is not tuple:
        return args.get(key, default) if args else default
    keys = args[0]
    return args[keys.index(key) + 1] if key in keys else default


def node_track(node_id: int, label: str = "") -> tuple:
    """The per-node timeline track for ``node_id``."""
    return (NODE_GROUP, (label, node_id))


def proto_track(name: str, label: str = "") -> tuple:
    """A protocol-engine stream track (e.g. ``reliability``)."""
    return (PROTO_GROUP, (label, name))


class Tracer:
    """Bounded recorder of structured spans and instant events.

    Args:
        capacity: ring-buffer size in events; the oldest events are
            evicted once full (:attr:`evicted` counts them).
        enabled: a disabled tracer is a no-op sink — every record method
            returns immediately and :meth:`span` yields a shared
            ``nullcontext`` (no per-call allocation).
        trace_callbacks: default for whether :func:`~repro.obs.hooks.
            install_tracing` also hooks simclock callback execution
            (high volume; the ring bounds it).
        clock: optional default clock for :meth:`span` /
            :meth:`instant` calls that omit ``ts``.
    """

    __slots__ = (
        "_ring",
        "_capacity",
        "_enabled",
        "_recorded",
        "_clock",
        "trace_callbacks",
        "_labels",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        enabled: bool = True,
        trace_callbacks: bool = False,
        clock: "SimClock | None" = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("tracer capacity must be >= 1")
        # Flat: event i of the ring is slots [i * _STRIDE, (i + 1) * _STRIDE).
        self._ring: list = []
        self._capacity = capacity
        self._enabled = enabled
        self._recorded = 0
        self._clock = clock
        self.trace_callbacks = trace_callbacks
        self._labels: dict[str, int] = {}

    # --------------------------------------------------------------- state
    @property
    def enabled(self) -> bool:
        """Is this tracer recording?"""
        return self._enabled

    @property
    def capacity(self) -> int:
        """Ring-buffer size in events."""
        return self._capacity

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
        """
        ring = self._ring
        oldest = self.evicted % self._capacity * _STRIDE
        slots = chain(islice(ring, oldest, None), islice(ring, oldest))
        return zip(*[slots] * _STRIDE)

    def __iter__(self) -> Iterator[TraceEvent]:
        for row in self.rows():
            args = row[-1]
            if args is not None:
                row = (*row[:-1], dict(zip(args[0], args[1:])))
            yield _new_record(TraceEvent, row)

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first (``args`` a fresh dict)."""
        return list(self)

    def bind_clock(self, clock: "SimClock") -> None:
        """Set the default clock for ``ts``-less record calls.

        First binding wins: multi-deployment workloads attach several
        clocks, and the default only serves top-level phase spans.
        """
        if self._clock is None:
            self._clock = clock

    def label_for(self, obj: object) -> str:
        """A stable per-tracer label for one traced deployment.

        First instance of a class gets its bare class name; repeats get
        ``#2``, ``#3``… suffixes, so multi-deployment workloads (the
        comparison benches) keep their node timelines apart.
        """
        base = type(obj).__name__
        count = self._labels.get(base, 0) + 1
        self._labels[base] = count
        return base if count == 1 else f"{base}#{count}"

    # ------------------------------------------------------------ recording
    def instant(
        self,
        name: str,
        track: tuple,
        ts: float | None = None,
        category: str = "",
        args: dict | tuple | None = None,
    ) -> None:
        """Record a point event at virtual time ``ts`` (default: now).

        ``args``: a dict (snapshotted), or already packed by the caller.
        """
        if not self._enabled:
            return
        if ts is None:
            ts = self._now()
        if args is not None and args.__class__ is not tuple:
            args = _pack(args)
        row = (name, INSTANT, ts, 0.0, track, category, perf_counter(), args)
        if self._recorded < self._capacity:
            self._ring.extend(row)
        else:  # full: overwrite the oldest event's slots
            oldest = self._recorded % self._capacity * _STRIDE
            self._ring[oldest : oldest + _STRIDE] = row
        self._recorded += 1

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
        """
        if not self._enabled:
            return
        if ts is None:
            ts = self._now()
        args = _pack(values)
        row = (name, COUNTER, ts, 0.0, track, category, perf_counter(), args)
        if self._recorded < self._capacity:
            self._ring.extend(row)
        else:
            oldest = self._recorded % self._capacity * _STRIDE
            self._ring[oldest : oldest + _STRIDE] = row
        self._recorded += 1

    def complete(
        self,
        name: str,
        track: tuple,
        start: float,
        dur: float,
        category: str = "",
        args: dict | tuple | None = None,
    ) -> None:
        """Record a finished span: ``[start, start + dur]`` virtual time."""
        if not self._enabled:
            return
        if args is not None and args.__class__ is not tuple:
            args = _pack(args)
        row = (name, SPAN, start, dur, track, category, perf_counter(), args)
        if self._recorded < self._capacity:
            self._ring.extend(row)
        else:
            oldest = self._recorded % self._capacity * _STRIDE
            self._ring[oldest : oldest + _STRIDE] = row
        self._recorded += 1

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
        """Record one simclock callback execution (virtual dur is 0).

        Virtual time does not advance while a callback runs, so the
        interesting duration is the *wall* cost, carried in ``args``.
        """
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

# --------------------------------------------------------------- context
# The active tracer is how tracing reaches code that constructs its own
# deployments (the bench workloads): StorageDeployment.__init__ checks it
# and self-attaches.  Plain module global — the simulator is single-
# threaded by construction.
_ACTIVE: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The tracer new deployments should attach to, or ``None``."""
    return _ACTIVE


def activate(tracer: Tracer) -> None:
    """Make ``tracer`` the active tracer for new deployments.

    Raises:
        ObservabilityError: when another tracer is already active.
    """
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE is not tracer:
        raise ObservabilityError("another tracer is already active")
    _ACTIVE = tracer


def deactivate() -> None:
    """Clear the active tracer."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the active tracer for the ``with`` body."""
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()
