"""Deterministic fault injection: the simulator's adversarial weather.

The protocol claims (each cluster retains full-network integrity while
members hold only a slice of the ledger) are only credible if the wire
protocols survive lost messages, slow links, and crashed peers.  This
module provides that adversary, seeded and reproducible:

* :class:`FaultConfig` — per-message fault rates (drop / duplicate /
  delay-spike), validated.
* :class:`PartitionWindow` — a per-link partition: messages crossing the
  cut during ``[start, end)`` virtual seconds are severed.
* :class:`FaultInjector` — the runtime attached to one
  :class:`~repro.net.network.Network` by :meth:`FaultInjector.install`;
  ``Network.send``/``send_many`` consult it per message.  Drivers make
  the rest of the weather by calling it: :meth:`~FaultInjector.crash`,
  :meth:`~FaultInjector.stall`, :meth:`~FaultInjector.partition`, a
  **correlated** whole-zone outage with
  :meth:`~FaultInjector.crash_domain` (zones from
  :mod:`repro.net.domains`), and :meth:`~FaultInjector.heal`.

Determinism contract: fault decisions are drawn from one seeded stream in
send order, and the simulator's send order is itself deterministic, so a
(seed, config) pair replays the identical fault sequence on any machine.
When **no** injector is installed the network takes its original code
path untouched — baseline simulated metrics are byte-identical (the
bench harness enforces this against ``benchmarks/baseline.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError, FaultConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.obs.hooks import TracingObserver


@dataclass(frozen=True)
class FaultConfig:
    """Per-message fault probabilities (one uniform draw per send).

    The three rates partition one ``[0, 1)`` draw, so at most one
    message-level fault applies per send: drop wins over duplicate wins
    over delay.  ``delay_seconds`` is the spike *added* to the normal
    propagation + transmission delay.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 1.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.drop_rate + self.duplicate_rate + self.delay_rate > 1.0:
            raise ConfigurationError(
                "drop + duplicate + delay rates must not exceed 1"
            )
        if self.delay_seconds < 0:
            raise ConfigurationError("delay_seconds must be >= 0")


@dataclass(frozen=True)
class PartitionWindow:
    """A link cut between two node groups over a virtual-time window.

    Messages with the sender on one side and the recipient on the other
    are dropped while ``start <= now < end``.  Traffic within a side is
    unaffected.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    start: float = 0.0
    end: float = float("inf")

    def __post_init__(self) -> None:
        if not self.side_a or not self.side_b:
            # A cut that severs nothing is a configuration bug, not weather.
            raise ConfigurationError("partition sides must not be empty")
        if self.side_a & self.side_b:
            raise ConfigurationError("partition sides must be disjoint")
        if self.end < self.start:
            raise ConfigurationError("partition window must not be inverted")

    def severs(self, sender: int, recipient: int, now: float) -> bool:
        """Does this window cut the (sender, recipient) link right now?"""
        if not self.start <= now < self.end:
            return False
        return (sender in self.side_a and recipient in self.side_b) or (
            sender in self.side_b and recipient in self.side_a
        )


#: Outage kinds :meth:`FaultInjector.crash_domain` can apply.
CRASH = "crash"
STALL = "stall"


@dataclass
class FaultStats:
    """What the injector actually did to one run (deterministic per seed)."""

    intercepted: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    partition_dropped: int = 0
    stall_dropped: int = 0
    crashes: int = 0
    stalls: int = 0
    recoveries: int = 0


class FaultInjector:
    """Runtime fault state for one network; created by :meth:`install`.

    The injector holds the seeded decision stream, the stall set, and the
    live partition list; :class:`~repro.net.network.Network` consults
    :meth:`intercept` once per message handed to ``send``.
    """

    def __init__(self, network: "Network", config: FaultConfig | None = None) -> None:
        self.config = config or FaultConfig()
        self.network = network
        self.stats = FaultStats()
        self._rng = random.Random(self.config.seed)
        self._stalled: set[int] = set()
        self._partitions: list[PartitionWindow] = []
        self._crashed: set[int] = set()
        # zone -> current member ids; bound by the chaos/endurance driver
        # (the network itself knows nothing about failure domains).
        self._domain_resolver: Callable[[int], Sequence[int]] | None = None
        #: Every domain outage that fired: ``(at, zone, kind, victims)``,
        #: for the opt-in ``domains`` audit only — the per-node counters of
        #: :class:`FaultStats` already absorb the member-level effects.
        self.domain_outages: list[tuple[float, int, str, tuple[int, ...]]] = []
        self._observer: "TracingObserver | None" = None

    @classmethod
    def install(
        cls, network: "Network", config: FaultConfig | None = None
    ) -> "FaultInjector":
        """Attach an injector to ``network``; it intercepts the next send."""
        injector = cls(network, config)
        network.attach_faults(injector)
        return injector

    # ------------------------------------------------------- instrumentation
    def attach_observer(self, observer: "TracingObserver | None") -> None:
        """Mirror fault decisions into a tracing observer (``None``
        detaches)."""
        self._observer = observer

    # ------------------------------------------------------------ liveness
    def is_live(self, node_id: int) -> bool:
        """The fault layer's liveness view: online and not stalled."""
        return self.network.is_online(node_id) and node_id not in self._stalled

    def crash(self, node_id: int) -> None:
        """Crash a node now (messages to/from it are lost until recovery)."""
        self.network.set_online(node_id, False)
        self._crashed.add(node_id)
        self.stats.crashes += 1
        if self._observer is not None:
            self._observer.on_weather("crash", {"node": node_id})

    def stall(self, node_id: int) -> None:
        """Stall a node now: it stays registered but all its traffic drops."""
        self._stalled.add(node_id)
        self.stats.stalls += 1
        if self._observer is not None:
            self._observer.on_weather("stall", {"node": node_id})

    def recover(self, node_id: int) -> None:
        """Bring a crashed or stalled node back.

        A node that churn removed while it was down has nothing to bring
        back: it only leaves the crashed/stalled sets.
        """
        if node_id in self._crashed:
            if node_id in self.network.node_ids:
                self.network.set_online(node_id, True)
            self._crashed.discard(node_id)
        self._stalled.discard(node_id)
        self.stats.recoveries += 1
        if self._observer is not None:
            self._observer.on_weather("recover", {"node": node_id})

    def partition(self, window: PartitionWindow) -> None:
        """Add a partition window at runtime (tests and chaos drivers)."""
        self._partitions.append(window)
        if self._observer is not None:
            self._observer.on_weather(
                "partition",
                {
                    "side_a": sorted(window.side_a),
                    "side_b_size": len(window.side_b),
                    "until": window.end,
                },
            )

    def heal(self) -> None:
        """End every fault source: recover nodes, clear stalls, rejoin cuts.

        Message-level fault *rates* keep applying — healing restores
        connectivity, not perfect weather.
        """
        now = self.network.now
        for node_id in sorted(self._crashed | self._stalled):
            self.recover(node_id)
        self._partitions = [
            window for window in self._partitions if window.end <= now
        ]

    # ------------------------------------------------------ failure domains
    def bind_domains(self, resolver: Callable[[int], Sequence[int]]) -> None:
        """Supply the zone → current-members resolver domain outages need.

        Typically ``deployment.domains.members_of_zone`` (or a closure
        over it); called once by the chaos/endurance driver after the
        injector installs.
        """
        self._domain_resolver = resolver

    def crash_domain(self, zone: int, kind: str = CRASH) -> tuple[int, ...]:
        """Fail every live member of one zone at once; returns the victims.

        ``kind`` selects crash vs stall; anything else raises
        :class:`~repro.errors.FaultConfigError`.  Victims are resolved
        *now* (post-churn membership), so the blast radius is whatever
        the zone holds when it fails, filtered to currently-live nodes
        so a node already down is never double-counted, and recorded on
        :attr:`domain_outages`.  Recovery is the caller's, through
        :meth:`heal`.
        """
        if kind not in (CRASH, STALL):
            raise FaultConfigError(f"domain outages crash or stall, not {kind!r}")
        if self._domain_resolver is None:
            raise FaultConfigError(
                "domain outage fired with no domain resolver bound "
                "(call FaultInjector.bind_domains first)"
            )
        victims = tuple(
            node_id
            for node_id in sorted(self._domain_resolver(zone))
            if node_id in self.network.node_ids and self.is_live(node_id)
        )
        fail = self.crash if kind == CRASH else self.stall
        for node_id in victims:
            fail(node_id)
        self.domain_outages.append((self.network.clock.now, zone, kind, victims))
        if self._observer is not None:
            self._observer.on_weather(
                "domain_outage",
                {"zone": zone, "kind": kind, "victims": list(victims)},
            )
        return victims

    # ------------------------------------------------------------ messages
    def intercept(self, message: "Message", now: float) -> tuple[int, float]:
        """Decide one message's fate: ``(copies, extra_delay)``.

        ``copies`` is how many deliveries to schedule (0 = dropped,
        2 = duplicated); ``extra_delay`` is added to each copy's normal
        delay.  Exactly one RNG draw is consumed per rate-eligible
        message, keeping the decision stream reproducible.
        """
        self.stats.intercepted += 1
        sender, recipient = message.sender, message.recipient
        if sender in self._stalled or recipient in self._stalled:
            self.stats.stall_dropped += 1
            self._trace_fault("stall_drop", message, now)
            return 0, 0.0
        for window in self._partitions:
            if window.severs(sender, recipient, now):
                self.stats.partition_dropped += 1
                self._trace_fault("partition_drop", message, now)
                return 0, 0.0
        config = self.config
        if config.drop_rate or config.duplicate_rate or config.delay_rate:
            draw = self._rng.random()
            if draw < config.drop_rate:
                self.stats.dropped += 1
                self._trace_fault("drop", message, now)
                return 0, 0.0
            if draw < config.drop_rate + config.duplicate_rate:
                self.stats.duplicated += 1
                self._trace_fault("duplicate", message, now)
                return 2, 0.0
            if (
                draw
                < config.drop_rate + config.duplicate_rate + config.delay_rate
            ):
                self.stats.delayed += 1
                self._trace_fault("delay", message, now)
                return 1, config.delay_seconds
        return 1, 0.0

    def _trace_fault(self, name: str, message: "Message", now: float) -> None:
        if self._observer is None:
            return
        self._observer.on_fault(name, message, now)
