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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simclock import SimClock


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

#: Pacing for the engines' delivery probes under chaos: backs off 2×.
PROBE_RETRY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=2.0, max_timeout=16.0
)

#: Cap on the fire-and-forget probe retries of the dissemination, sync
#: and verification engines, which have no per-request peer plan.
PROBE_ATTEMPTS = 4


@dataclass(frozen=True)
class DegradedResult:
    """A request that exhausted every replica without an answer."""

    request_id: int
    reason: str
    attempts: int
    at: float


class PendingRequest:
    """One in-flight request: its peer plan and attempt bookkeeping."""

    __slots__ = (
        "request_id",
        "plan",
        "send",
        "on_degraded",
        "attempts",
        "timeouts",
        "failovers",
        "resolved_at",
        "degraded",
    )

    def __init__(
        self,
        request_id: int,
        plan: Sequence[int],
        send: Callable[[int, "PendingRequest"], None],
        on_degraded: Callable[["PendingRequest"], None] | None = None,
    ) -> None:
        self.request_id = request_id
        self.plan = list(plan)
        self.send = send
        self.on_degraded = on_degraded
        self.attempts = 1
        self.timeouts = 0
        self.failovers = 0
        self.resolved_at: float | None = None
        self.degraded: DegradedResult | None = None

    @property
    def resolved(self) -> bool:
        """Did an answer arrive?"""
        return self.resolved_at is not None

    @property
    def active(self) -> bool:
        """Still waiting: neither answered nor given up."""
        return self.resolved_at is None and self.degraded is None

    @property
    def target(self) -> int:
        """The plan peer the current attempt addresses."""
        return self.plan[(self.attempts - 1) % len(self.plan)]


class RequestTracker:
    """Deadline-driven retry state machine over one simclock.

    Lifecycle: :meth:`begin` sends attempt 1 and schedules its deadline;
    a deadline firing on a still-active request counts a timeout and
    advances it to the next plan peer (:class:`RetryPolicy` pacing); a
    negative answer advances it immediately via :meth:`advance`; a
    positive answer ends it via :meth:`resolve`.  When attempts exceed
    ``policy.max_attempts(len(plan))`` the request degrades — recorded in
    :attr:`degraded_results` and pushed through the ``on_degraded``
    callbacks so engines can count it and fall back.
    """

    def __init__(
        self,
        clock: "SimClock",
        policy: RetryPolicy | None = None,
        on_retry: Callable[[PendingRequest], None] | None = None,
        on_timeout: Callable[[PendingRequest], None] | None = None,
        on_degraded: Callable[[PendingRequest], None] | None = None,
    ) -> None:
        self.clock = clock
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.pending: dict[int, PendingRequest] = {}
        self.degraded_results: list[DegradedResult] = []
        self._notify_retry = on_retry
        self._notify_timeout = on_timeout
        self._notify_degraded = on_degraded

    # ------------------------------------------------------------ lifecycle
    def begin(
        self,
        request_id: int,
        plan: Sequence[int],
        send: Callable[[int, PendingRequest], None],
        on_degraded: Callable[[PendingRequest], None] | None = None,
    ) -> PendingRequest:
        """Track a new request and fire its first attempt."""
        request = PendingRequest(request_id, plan, send, on_degraded)
        self.pending[request_id] = request
        if not request.plan:
            self._degrade(request, "no-reachable-replica")
        else:
            self._attempt(request_id)
        return request

    def advance(self, request_id: int) -> None:
        """A peer answered negatively: try the next plan peer now."""
        request = self.pending.get(request_id)
        if request is None or not request.active:
            return
        request.attempts += 1
        self._attempt(request_id)

    def abandon(self, request_id: int, reason: str) -> None:
        """The caller cannot pursue the request any further: degrade it."""
        request = self.pending.get(request_id)
        if request is not None and request.active:
            self._degrade(request, reason)

    def resolve(self, request_id: int) -> PendingRequest | None:
        """An answer arrived: stop tracking (stale deadlines no-op)."""
        request = self.pending.pop(request_id, None)
        if request is not None and request.resolved_at is None:
            request.resolved_at = self.clock.now
        return request

    # ------------------------------------------------------------ internals
    def _attempt(self, request_id: int) -> None:
        request = self.pending.get(request_id)
        if request is None or not request.active:
            return
        if request.attempts > self.policy.max_attempts(len(request.plan)):
            self._degrade(request, "retries-exhausted")
            return
        if request.attempts > 1:
            if len(request.plan) > 1:
                request.failovers += 1
            if self._notify_retry is not None:
                self._notify_retry(request)
        request.send(request.target, request)
        self.clock.schedule(
            self.policy.timeout_for(request.attempts),
            self._on_deadline,
            request_id,
        )

    def _on_deadline(self, request_id: int) -> None:
        request = self.pending.get(request_id)
        if request is None or not request.active:
            return
        request.timeouts += 1
        if self._notify_timeout is not None:
            self._notify_timeout(request)
        request.attempts += 1
        self._attempt(request_id)

    def _degrade(self, request: PendingRequest, reason: str) -> None:
        request.degraded = DegradedResult(
            request_id=request.request_id,
            reason=reason,
            attempts=request.attempts,
            at=self.clock.now,
        )
        self.degraded_results.append(request.degraded)
        if self._notify_degraded is not None:
            self._notify_degraded(request)
        if request.on_degraded is not None:
            request.on_degraded(request)
