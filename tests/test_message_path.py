"""The per-message call budget, counted — no wall clock involved.

Every simulated wire message passes through four stages: it is *built*
(``sized_message``), *scheduled* (``Network.send`` → ``SimClock.post``),
*delivered* (``SimClock.step`` → ``Network._deliver`` →
``BaseNode.handle_message``) and *dispatched* (``MessageRouter.dispatch``
→ observers → handler).  The simulator's speed is that path's fixed
cost, so this test pins it in Python ``call`` events under
``sys.setprofile``: a frame added anywhere on the path fails here, on
any machine, at any load.  Observer hooks are excluded (how many run is
a property of the deployment's features, not of the path).
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.net.message import MessageKind, sized_message
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.net.traffic import TrafficLedger
from repro.node.base import BaseNode
from repro.protocols.router import MessageRouter
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def _code(function):
    return getattr(function, "__func__", function).__code__


def _names(path) -> tuple[str, ...]:
    return tuple(code.co_name for code in path)


class _PathProfiler:
    """Collects the call sequence of each delivery and of each send.

    A delivery's sequence runs from ``SimClock.step`` entry to the entry
    of the registered handler; a send's covers the whole
    ``BaseNode.send`` call.  Calls made by (and below) an observer hook —
    anything ``dispatch`` or ``note_send`` calls that is not a registered
    handler — are skipped.
    """

    def __init__(self, router: MessageRouter) -> None:
        self._handlers = {_code(h) for h in router._handlers.values()}
        self._hook_callers = {
            _code(MessageRouter.dispatch),
            _code(MessageRouter.note_send),
        }
        self._step = _code(SimClock.step)
        self._send = _code(BaseNode.send)
        #: call sequence -> how many deliveries / sends took it.
        self.deliveries: Counter = Counter()
        self.sends: Counter = Counter()
        #: frames between step and the handler at handler entry.
        self.delivery_stacks: Counter = Counter()
        self._stack: list = []
        self._delivery: list | None = None  # open step -> handler path
        self._sending: list | None = None  # open BaseNode.send path
        self._hook_floor: int | None = None  # stack depth of an open hook

    def __call__(self, frame, event, _arg) -> None:
        stack = self._stack
        if event == "return" and stack:
            code = stack.pop()
            if self._hook_floor == len(stack):
                self._hook_floor = None
            elif code is self._send:
                self.sends[_names(self._sending)] += 1
                self._sending = None
            elif code is self._step:
                self._delivery = None  # a timer event entered no handler
        if event != "call":
            return
        code = frame.f_code
        stack.append(code)
        if self._hook_floor is not None:
            return
        if code is self._step:
            self._delivery = []
            return
        if code is self._send:
            self._sending = []
            return
        if len(stack) > 1 and stack[-2] in self._hook_callers:
            if code not in self._handlers:
                self._hook_floor = len(stack) - 1
                return
            if self._delivery is not None:
                self.deliveries[_names(self._delivery)] += 1
                first = len(stack) - 1 - stack[::-1].index(self._step)
                self.delivery_stacks[_names(stack[first + 1 : -1])] += 1
                self._delivery = None
                return
        for path in (self._delivery, self._sending):
            if path is not None:
                path.append(code)


def test_call_budget():
    deployment = ICIDeployment(
        8, config=ICIConfig(n_clusters=2, replication=2, limits=TEST_LIMITS)
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=1)
    traffic = deployment.network.traffic
    profiler = _PathProfiler(deployment.router)
    sys.setprofile(profiler)
    try:
        runner.produce_blocks(2, txs_per_block=3)
        for sender in range(4):  # the unicast path: node.send()
            deployment.nodes[sender].send(
                MessageKind.DHT_PING, sender + 1, (1,), 8
            )
        deployment.run()
    finally:
        sys.setprofile(None)

    delivered = traffic.total_messages
    assert delivered > 100
    # Between SimClock.step and the handler: three frames on the stack ...
    assert profiler.delivery_stacks == {
        ("_deliver", "handle_message", "dispatch"): delivered
    }
    # ... and one sibling call, the single traffic-accounting site.
    assert profiler.deliveries == {
        ("_deliver", "record", "handle_message", "dispatch"): delivered
    }
    assert _code(TrafficLedger.record).co_name == "record"
    assert _code(Network._deliver).co_name == "_deliver"
    # One send: build, publish to observers, latency, one heap entry.
    assert "total_delay" in vars(type(deployment.network.latency))
    sends = sum(profiler.sends.values())
    assert sends >= 4
    assert profiler.sends == {
        ("sized_message", "note_send", "send", "total_delay", "post"): sends
    }


class _HookProfiler:
    """The Python ``call`` events below each watched function call."""

    def __init__(self, *watched) -> None:
        self._watched = {_code(function) for function in watched}
        #: (watched code, *codes called below it) -> how many calls.
        self.paths: Counter = Counter()
        self._path: list | None = None
        self._depth = 0  # frames open below the watched one

    def __call__(self, frame, event, _arg) -> None:
        if event == "call":
            if self._path is not None:
                self._path.append(frame.f_code)
                self._depth += 1
            elif frame.f_code in self._watched:
                self._path = [frame.f_code]
        elif event == "return" and self._path is not None:
            if self._depth:
                self._depth -= 1
            else:
                self.paths[tuple(self._path)] += 1
                self._path = None


def test_traced_call_budget(wrapped: bool = False):
    """One recorded event: the producer's frame plus one record frame.

    The tracer is on in every chaos/endurance run, so its per-event cost
    is a fixed cost of those runs.  Once a node's track exists (the
    warm-up block), a traced send is ``on_send`` → ``Tracer.instant`` and
    a traced delivery ``on_deliver`` → ``Tracer.complete`` (``instant``
    with no witnessed send), with the public ``SimClock.now`` property
    read in between as the only other call: no ``node_track``, no
    ``TraceEvent.__new__``/``__init__``, no inner record helper.
    Retries, timeouts and fault decisions likewise.  The ring is still
    filling here; the next test re-runs this on one that has ``wrapped``.
    """
    from repro.obs.hooks import TracingObserver, install_tracing
    from repro.obs.tracer import Tracer
    from repro.sim.chaos import ChaosConfig, build_scenario
    from repro.sim.faults import FaultInjector

    config = ChaosConfig(seed=3, n_blocks=4, queries=0, drop_rate=0.2)
    deployment, runner, _ = build_scenario(
        config, TEST_LIMITS, config.fault_config()
    )
    tracer = Tracer(64) if wrapped else Tracer()
    install_tracing(deployment, tracer)
    runner.produce_blocks(1, txs_per_block=3)
    deployment.run()
    assert bool(tracer.evicted) == wrapped
    profiler = _HookProfiler(
        TracingObserver.on_send,
        TracingObserver.on_deliver,
        TracingObserver.on_retry,
        TracingObserver.on_timeout,
        FaultInjector._trace_fault,
    )
    before = tracer.recorded
    # A collection inside a hook would add the frames of whatever
    # gc.callbacks the test session registered (hypothesis has one).
    gc.disable()
    sys.setprofile(profiler)
    try:
        runner.produce_blocks(2, txs_per_block=3)
        deployment.run()
    finally:
        sys.setprofile(None)
        gc.enable()

    now = _code(SimClock.now.fget)
    instant, complete = _code(Tracer.instant), _code(Tracer.complete)
    assert set(profiler.paths) == {
        (_code(TracingObserver.on_send), now, instant),
        (_code(TracingObserver.on_deliver), now, complete),
        (_code(TracingObserver.on_deliver), now, instant),
        (_code(TracingObserver.on_retry), now, instant),
        (_code(TracingObserver.on_timeout), now, instant),
        (_code(FaultInjector._trace_fault), instant),
    }, {_names(path) for path in profiler.paths}
    assert profiler.paths[_code(TracingObserver.on_send), now, instant] > 100
    # One event per watched call; finalize marks, counter samples and
    # repair instants (not watched) make up the rest.
    assert sum(profiler.paths.values()) <= tracer.recorded - before
    assert bool(tracer.evicted) == wrapped


def test_traced_call_budget_on_a_wrapped_ring():
    """Overwriting the oldest event's slots is no helper frame either."""
    test_traced_call_budget(wrapped=True)


def _tracked_allocations(call, arguments) -> int:
    """Net GC-tracked objects left behind by ``call`` over ``arguments``."""
    gc.collect()
    gc.disable()  # a collection would reset the generation-0 count
    try:
        before = gc.get_count()[0]
        for argument in arguments:
            call(argument)
        return gc.get_count()[0] - before
    finally:
        gc.enable()


def test_traced_event_retains_at_most_one_tracked_object():
    """What the cyclic GC has to count per recorded event.

    A traced send leaves one object behind for the collector, the packed
    ``args`` tuple (a retained row tuple plus an ``args`` dict made it
    two); an event without ``args`` leaves none, and on a wrapped ring
    each record frees what it overwrites.
    """
    from repro.obs.hooks import TracingObserver
    from repro.obs.tracer import Tracer

    messages = [
        sized_message(MessageKind.BLOCK_BODY, index % 8, 8, None, 100)
        for index in range(10_000)
    ]
    tracer = Tracer()
    observer = TracingObserver(tracer, SimClock())
    for message in messages[:8]:  # warm-up: one track per sender
        observer.on_send(message)
    sends = _tracked_allocations(observer.on_send, messages)
    assert 10_000 <= sends < 10_100
    assert abs(_tracked_allocations(observer.on_retry, ["k"] * 10_000)) < 100
    assert tracer.recorded == 20_008 and tracer.evicted == 0

    wrapped = Tracer(capacity=64)
    observer = TracingObserver(wrapped, SimClock())
    for message in messages[:100]:
        observer.on_send(message)
    assert abs(_tracked_allocations(observer.on_send, messages)) < 100
    assert wrapped.evicted == 10_100 - 64
