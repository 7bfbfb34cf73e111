"""Retry/timeout/backoff: pending-request tracking for the engines.

The protocol engines assume the simulated network delivers every
``send``; under the fault layer (``sim/faults.py``) it does not.
This module is the shared recovery substrate: a :class:`RequestTracker`
holds each pending request, schedules deadlines on the simclock, retries
with capped exponential backoff, fails over across the request's peer
*plan* (the other holders of the same chunk inside the cluster), and
surfaces a :class:`DegradedResult` when every replica stays unreachable.

The default :class:`RetryPolicy` reproduces the query engine's historical
behaviour exactly — fixed 2-second deadlines, every holder tried twice —
so fault-free runs keep byte-identical event sequences.  Chaos scenarios
swap in a backoff > 1 policy.

Determinism: deadlines are regular simclock events and the tracker holds
no randomness, so retry/timeout counters are a pure function of the run.
One non-obvious but load-bearing inherited semantic: deadlines are never
cancelled when an answer arrives (cancellation would change the clock's
processed-event count); a stale deadline for an already-answered request
simply fires as a no-op, and a stale deadline for a *still-pending*
request advances it — exactly what the pre-tracker query engine did.
The same holds for a :meth:`RequestTracker.watch`: nothing cancels its
next firing when the awaited state arrives; that firing finds ``waiting()``
false and ends the watch.

The tracker is also the one reporter: every retry, timeout and
degradation reaches the router's ``note_retry`` / ``note_timeout`` /
``note_degraded`` from here, under the request's (or watch's) ``kind``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simclock import SimClock
    from repro.protocols.router import MessageRouter


@dataclass(frozen=True)
class RetryPolicy:
    """How a tracker paces one request's attempts.

    Attempt ``i`` (1-based) waits ``base_timeout * backoff**(i-1)``
    seconds, capped at ``max_timeout``; a request gives up after
    ``rounds`` full passes over its peer plan.
    """

    base_timeout: float = 2.0
    backoff: float = 1.0
    max_timeout: float = 30.0
    rounds: int = 2

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ConfigurationError("base_timeout must be > 0")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if self.max_timeout < self.base_timeout:
            raise ConfigurationError("max_timeout must be >= base_timeout")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")

    def timeout_for(self, attempt: int) -> float:
        """Deadline for the ``attempt``-th try (capped exponential)."""
        return min(
            self.max_timeout, self.base_timeout * self.backoff ** (attempt - 1)
        )

    def max_attempts(self, plan_size: int) -> int:
        """Total tries before giving up: every plan peer, ``rounds`` times."""
        return self.rounds * plan_size


#: Matches the historical query engine: fixed 2 s deadline, 2 rounds.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Pacing of :meth:`RequestTracker.watch` under chaos: backs off 2×.
PROBE_RETRY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=2.0, max_timeout=16.0
)

#: Kicks a watch gets before it degrades (a watch has no peer plan).
PROBE_ATTEMPTS = 4


@dataclass(frozen=True)
class DegradedResult:
    """A request that exhausted every replica without an answer."""

    request_id: int
    reason: str
    attempts: int
    at: float


class PendingRequest:
    """One in-flight request: what it is, whose it is, and how far along.

    ``kind`` is the label its retries/timeouts/degradation are reported
    under; ``context`` is the owner's own data (opaque to the tracker),
    handed back by :meth:`RequestTracker.resolve` and to ``on_degraded``.
    """

    __slots__ = (
        "request_id",
        "kind",
        "context",
        "plan",
        "send",
        "on_degraded",
        "attempts",
        "timeouts",
        "failovers",
        "degraded",
    )

    def __init__(
        self,
        request_id: int,
        kind: str,
        plan: Sequence[int],
        send: Callable[[int, "PendingRequest"], None],
        on_degraded: Callable[["PendingRequest"], None] | None = None,
        context: object = None,
    ) -> None:
        self.request_id = request_id
        self.kind = kind
        self.context = context
        self.plan = list(plan)
        self.send = send
        self.on_degraded = on_degraded
        self.attempts = 1
        self.timeouts = 0
        self.failovers = 0
        self.degraded: DegradedResult | None = None

    @property
    def target(self) -> int:
        """The plan peer the current attempt addresses."""
        return self.plan[(self.attempts - 1) % len(self.plan)]


class RequestTracker:
    """Deadline-driven retry state machine over one simclock.

    Request lifecycle: :meth:`begin` sends attempt 1 and schedules its
    deadline; a deadline firing on a still-pending request counts a
    timeout and advances it to the next plan peer (:class:`RetryPolicy`
    pacing); a negative answer advances it immediately via
    :meth:`advance`; a positive answer ends it via :meth:`resolve`, which
    hands the record back.  When attempts exceed
    ``policy.max_attempts(len(plan))`` the request degrades: it leaves
    :attr:`pending`, is counted once, and its ``on_degraded`` runs.

    Watch lifecycle (:meth:`watch`): a request whose answer is local
    state rather than a message — poll ``waiting()``, ``kick`` while it
    holds, re-arm, degrade at the cap.
    """

    def __init__(
        self,
        clock: "SimClock",
        router: "MessageRouter",
        policy: RetryPolicy | None = None,
    ) -> None:
        self.clock = clock
        self.router = router
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.pending: dict[int, PendingRequest] = {}
        #: Keys of the keyed watches still running (per-key dedupe).
        self.watching: set[Hashable] = set()

    # ------------------------------------------------------------ lifecycle
    def begin(
        self,
        request_id: int,
        kind: str,
        plan: Sequence[int],
        send: Callable[[int, PendingRequest], None],
        on_degraded: Callable[[PendingRequest], None] | None = None,
        context: object = None,
    ) -> PendingRequest:
        """Track a new request and fire its first attempt."""
        request = PendingRequest(
            request_id, kind, plan, send, on_degraded, context
        )
        if not request.plan:
            self._degrade(request, "no-reachable-replica")
        else:
            self.pending[request_id] = request
            self._attempt(request)
        return request

    def advance(self, request_id: int) -> None:
        """A peer answered negatively: try the next plan peer now."""
        request = self.pending.get(request_id)
        if request is not None:
            request.attempts += 1
            self._attempt(request)

    def abandon(self, request_id: int, reason: str) -> None:
        """The caller cannot pursue the request any further: degrade it."""
        request = self.pending.get(request_id)
        if request is not None:
            self._degrade(request, reason)

    def resolve(self, request_id: int) -> PendingRequest | None:
        """An answer arrived: stop tracking (stale deadlines no-op).

        Returns the record (``None`` for an unknown, already-answered or
        degraded id — a duplicate delivery or post-degrade straggler).
        """
        return self.pending.pop(request_id, None)

    def watch(
        self,
        kind: str,
        waiting: Callable[[], bool],
        kick: Callable[[int], object],
        exhausted: Callable[[], None] | None = None,
        key: Hashable | None = None,
    ) -> None:
        """Poll local state until it arrives, kicking it along.

        Each firing (:data:`PROBE_RETRY_POLICY` pacing) ends the watch if
        ``waiting()`` is false; otherwise it counts a timeout and calls
        ``kick(attempt)`` to re-drive whatever stalled, then re-arms —
        *after* ``kick`` returns, so kick's sends queue first — unless
        ``kick`` returned true (it finished the job itself).  After
        :data:`PROBE_ATTEMPTS` kicks the watch degrades instead:
        counted once, then ``exhausted()``.  A ``key`` dedupes: a second
        watch of a key still running is dropped.
        """
        if key is not None:
            if key in self.watching:
                return
            self.watching.add(key)
        self._arm((kind, waiting, kick, exhausted, key), 1)

    # ------------------------------------------------------------ internals
    def _attempt(self, request: PendingRequest) -> None:
        if request.attempts > self.policy.max_attempts(len(request.plan)):
            self._degrade(request, "retries-exhausted")
            return
        if request.attempts > 1:
            if len(request.plan) > 1:
                request.failovers += 1
            self.router.note_retry(request.kind)
        request.send(request.target, request)
        self.clock.schedule(
            self.policy.timeout_for(request.attempts),
            self._on_deadline,
            request.request_id,
        )

    def _on_deadline(self, request_id: int) -> None:
        request = self.pending.get(request_id)
        if request is None:
            return
        request.timeouts += 1
        self.router.note_timeout(request.kind)
        request.attempts += 1
        self._attempt(request)

    def _degrade(self, request: PendingRequest, reason: str) -> None:
        self.pending.pop(request.request_id, None)
        request.degraded = DegradedResult(
            request_id=request.request_id,
            reason=reason,
            attempts=request.attempts,
            at=self.clock.now,
        )
        self.router.note_degraded(request.kind)
        if request.on_degraded is not None:
            request.on_degraded(request)

    def _arm(self, watch: tuple, attempt: int) -> None:
        self.clock.schedule(
            PROBE_RETRY_POLICY.timeout_for(attempt),
            self._on_watch,
            watch,
            attempt,
        )

    def _on_watch(self, watch: tuple, attempt: int) -> None:
        kind, waiting, kick, exhausted, key = watch
        if not waiting():
            self.watching.discard(key)
        elif attempt > PROBE_ATTEMPTS:
            self.watching.discard(key)
            self.router.note_degraded(kind)
            if exhausted is not None:
                exhausted()
        else:
            self.router.note_timeout(kind)
            if kick(attempt):
                self.watching.discard(key)
            else:
                self._arm(watch, attempt + 1)
