"""Deterministic fault injection: the simulator's adversarial weather.

The protocol claims (each cluster retains full-network integrity while
members hold only a slice of the ledger) are only credible if the wire
protocols survive lost messages, slow links, and crashed peers.  This
module provides that adversary as a **seeded, reproducible plan**:

* :class:`FaultConfig` — per-message fault rates (drop / duplicate /
  delay-spike), validated.
* :class:`PartitionWindow` — a per-link partition: messages crossing the
  cut during ``[start, end)`` virtual seconds are severed.
* :class:`OutageEvent` — a node crash / stall / recovery at a virtual
  time, scheduled on the :class:`~repro.net.simclock.SimClock` when the
  plan is installed.  Schedules are validated: orphan recoveries and
  overlapping outages for one node raise
  :class:`~repro.errors.FaultConfigError` instead of producing silent
  nonsense weather.
* :class:`DomainOutageEvent` — a **correlated** outage: every member of
  one failure domain (:mod:`repro.net.domains`) crashes or stalls at
  once, recovering together ``duration`` later.
  :func:`domain_partition` builds the network-cut analogue (the zone
  stays up but its uplink is severed).
* :class:`FaultPlan` — the full schedule; :meth:`FaultPlan.generate`
  derives one deterministically from a seed (the golden-pin target).
* :class:`FaultInjector` — the runtime attached to one
  :class:`~repro.net.network.Network` via :meth:`FaultPlan.install`;
  ``Network.send``/``send_many`` consult it per message.

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
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import ConfigurationError, FaultConfigError
from repro.net.message import KIND_VALUE
from repro.obs.tracer import FAULTS_TRACK, active_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.obs.tracer import Tracer


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


#: Outage kinds an :class:`OutageEvent` can apply.
CRASH = "crash"
STALL = "stall"
RECOVER = "recover"

#: Key set of a traced per-message fault decision's (packed) ``args``.
_FAULT_KEYS = ("kind", "from", "to")


@dataclass(frozen=True)
class OutageEvent:
    """One scheduled node-liveness change at a virtual time."""

    at: float
    node_id: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, STALL, RECOVER):
            raise ConfigurationError(f"unknown outage kind {self.kind!r}")
        if self.at < 0:
            raise ConfigurationError("outage time must be >= 0")


@dataclass(frozen=True)
class DomainOutageEvent:
    """One scheduled **correlated** outage: a whole zone fails at once.

    At ``at`` virtual seconds every current member of ``zone`` is
    crashed (or stalled); ``duration`` later the same members recover.
    Resolution from zone to member ids happens **at fire time** through
    the resolver bound with :meth:`FaultInjector.bind_domains`, so churn
    between scheduling and firing is honoured — the blast radius is
    whatever the zone contains when the failure happens, exactly like a
    real rack losing power.

    Per-node effects land on the ordinary crash/stall/recover counters
    (a domain outage *is* N node outages, correlated); the injector
    additionally records each firing on
    :attr:`FaultInjector.domain_outages` for the opt-in chaos/endurance
    ``domains`` audit, keeping :class:`FaultStats` — and every
    golden-pinned signature built from it — exactly as before.
    """

    at: float
    zone: int
    kind: str = CRASH
    duration: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, STALL):
            raise FaultConfigError(
                f"domain outages crash or stall, not {self.kind!r}"
            )
        if self.at < 0:
            raise FaultConfigError("domain outage time must be >= 0")
        if self.duration < 0:
            raise FaultConfigError("domain outage duration must be >= 0")
        if self.zone < 0:
            raise FaultConfigError("zone must be >= 0")


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

    @property
    def total_dropped(self) -> int:
        """Messages lost to any fault (rate, partition, or stall)."""
        return self.dropped + self.partition_dropped + self.stall_dropped


class FaultPlan:
    """A complete, seeded fault schedule for one simulation run."""

    def __init__(
        self,
        config: FaultConfig | None = None,
        partitions: Sequence[PartitionWindow] = (),
        outages: Sequence[OutageEvent] = (),
        domain_outages: Sequence[DomainOutageEvent] = (),
    ) -> None:
        self.config = config or FaultConfig()
        self.partitions = tuple(partitions)
        self.outages = tuple(sorted(outages, key=lambda e: (e.at, e.node_id)))
        self.domain_outages = tuple(
            sorted(domain_outages, key=lambda e: (e.at, e.zone))
        )
        _validate_outages(self.outages)

    @classmethod
    def generate(
        cls,
        seed: int,
        node_ids: Iterable[int],
        *,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 1.0,
        crash_count: int = 0,
        stall_count: int = 0,
        outage_window: tuple[float, float] = (0.0, 60.0),
        outage_duration: float = 10.0,
        domain_outage_count: int = 0,
        zone_count: int = 0,
        domain_outage_kind: str = CRASH,
    ) -> "FaultPlan":
        """Derive a full plan deterministically from ``seed``.

        Crash/stall victims are sampled without replacement from
        ``node_ids``; each outage starts uniformly inside
        ``outage_window`` and recovers ``outage_duration`` later.  Equal
        inputs yield an identical schedule on every machine — the
        fixed-seed golden pins in ``tests/test_faults.py`` rely on it.

        With ``domain_outage_count > 0`` (requires ``zone_count``),
        that many **whole zones** are additionally sampled without
        replacement and scheduled as :class:`DomainOutageEvent`\\ s over
        the same window.  The domain draws happen strictly *after* the
        per-node draws, so every pre-existing ``(seed, kwargs)``
        schedule — including the pinned golden one — is unchanged when
        the count is zero.
        """
        ids = sorted(node_ids)
        total = crash_count + stall_count
        if total > len(ids):
            raise ConfigurationError(
                f"{total} outages need at least that many nodes "
                f"(got {len(ids)})"
            )
        if outage_duration < 0:
            raise ConfigurationError("outage_duration must be >= 0")
        start, end = outage_window
        if end < start or start < 0:
            raise ConfigurationError("outage_window must be ordered and >= 0")
        rng = random.Random(seed ^ 0xFA017)
        victims = rng.sample(ids, total) if total else []
        outages: list[OutageEvent] = []
        for index, victim in enumerate(victims):
            kind = CRASH if index < crash_count else STALL
            at = start + rng.random() * (end - start)
            outages.append(OutageEvent(at=at, node_id=victim, kind=kind))
            outages.append(
                OutageEvent(
                    at=at + outage_duration, node_id=victim, kind=RECOVER
                )
            )
        domain_outages: list[DomainOutageEvent] = []
        if domain_outage_count:
            if zone_count < domain_outage_count:
                raise FaultConfigError(
                    f"{domain_outage_count} domain outages need at least "
                    f"that many zones (got {zone_count})"
                )
            zones = rng.sample(range(zone_count), domain_outage_count)
            for zone in zones:
                at = start + rng.random() * (end - start)
                domain_outages.append(
                    DomainOutageEvent(
                        at=at,
                        zone=zone,
                        kind=domain_outage_kind,
                        duration=outage_duration,
                    )
                )
        config = FaultConfig(
            seed=seed,
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            delay_rate=delay_rate,
            delay_seconds=delay_seconds,
        )
        return cls(
            config=config, outages=outages, domain_outages=domain_outages
        )

    @property
    def has_domain_outages(self) -> bool:
        """Does this plan schedule any whole-zone failures?"""
        return bool(self.domain_outages)

    def install(self, network: "Network") -> "FaultInjector":
        """Attach an injector for this plan to ``network``.

        Scheduled outages land on the network's clock immediately; the
        injector starts intercepting on the next ``send``.
        """
        injector = FaultInjector(self, network)
        network.attach_faults(injector)
        return injector


def _validate_outages(outages: Sequence[OutageEvent]) -> None:
    """Reject schedules that cannot describe real weather.

    Scanning the (already time-sorted) schedule per node: a ``RECOVER``
    with no preceding crash/stall is an orphan, and a second crash/stall
    before the prior recovery is an overlap — both previously produced
    silent nonsense (double-counted crashes, recoveries that revived
    nothing) instead of an error.
    """
    down: dict[int, OutageEvent] = {}
    for event in outages:
        if event.kind == RECOVER:
            if down.pop(event.node_id, None) is None:
                raise FaultConfigError(
                    f"node {event.node_id} recovers at t={event.at:g} "
                    "without a preceding crash or stall"
                )
            continue
        prior = down.get(event.node_id)
        if prior is not None:
            raise FaultConfigError(
                f"node {event.node_id} {event.kind}s at t={event.at:g} "
                f"while already down ({prior.kind} at t={prior.at:g} "
                "not yet recovered)"
            )
        down[event.node_id] = event


class FaultInjector:
    """Runtime fault state for one network; created by ``FaultPlan.install``.

    The injector holds the seeded decision stream, the stall set, and the
    live partition list; :class:`~repro.net.network.Network` consults
    :meth:`intercept` once per message handed to ``send``.
    """

    def __init__(self, plan: FaultPlan, network: "Network") -> None:
        self.plan = plan
        self.network = network
        self.stats = FaultStats()
        self._rng = random.Random(plan.config.seed)
        self._stalled: set[int] = set()
        self._partitions: list[PartitionWindow] = list(plan.partitions)
        self._crashed: set[int] = set()
        # zone -> current member ids; bound by the chaos/endurance driver
        # (the network itself knows nothing about failure domains).
        self._domain_resolver: Callable[[int], Sequence[int]] | None = None
        #: Every domain outage that fired: ``(at, zone, kind, victims)``.
        #: Deliberately *not* part of :class:`FaultStats` — the per-node
        #: crash/stall/recover counters absorb the member-level effects,
        #: so golden-pinned signatures are unchanged; this record feeds
        #: the opt-in ``domains`` audit only.
        self.domain_outages: list[tuple[float, int, str, tuple[int, ...]]] = []
        # Injectors built inside an active tracing scope self-attach;
        # install_tracing() also attaches to pre-existing injectors.
        self._tracer: "Tracer | None" = active_tracer()
        for event in plan.outages:
            at = max(event.at, network.clock.now)
            network.clock.schedule_at(at, self._apply_outage, event)
        for domain_event in plan.domain_outages:
            at = max(domain_event.at, network.clock.now)
            network.clock.schedule_at(
                at, self._apply_domain_outage, domain_event
            )

    # ------------------------------------------------------- instrumentation
    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Mirror fault decisions into a tracer (``None`` detaches)."""
        self._tracer = tracer

    def _trace(self, name: str, args: dict | None = None) -> None:
        self._tracer.instant(
            name,
            FAULTS_TRACK,
            ts=self.network.clock.now,
            category="fault",
            args=args,
        )

    # ------------------------------------------------------------ liveness
    def is_stalled(self, node_id: int) -> bool:
        """Is the node currently stalled (reachable but unresponsive)?"""
        return node_id in self._stalled

    def is_live(self, node_id: int) -> bool:
        """The fault layer's liveness view: online and not stalled."""
        return self.network.is_online(node_id) and node_id not in self._stalled

    def crash(self, node_id: int) -> None:
        """Crash a node now (messages to/from it are lost until recovery)."""
        self.network.set_online(node_id, False)
        self._crashed.add(node_id)
        self.stats.crashes += 1
        if self._tracer is not None:
            self._trace("crash", {"node": node_id})

    def stall(self, node_id: int) -> None:
        """Stall a node now: it stays registered but all its traffic drops."""
        self._stalled.add(node_id)
        self.stats.stalls += 1
        if self._tracer is not None:
            self._trace("stall", {"node": node_id})

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
        if self._tracer is not None:
            self._trace("recover", {"node": node_id})

    def partition(self, window: PartitionWindow) -> None:
        """Add a partition window at runtime (tests and chaos drivers)."""
        self._partitions.append(window)
        if self._tracer is not None:
            self._trace(
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

    def _apply_outage(self, event: OutageEvent) -> None:
        if event.node_id not in self.network.node_ids:
            return  # departed before its outage fired
        if event.kind == CRASH:
            self.crash(event.node_id)
        elif event.kind == STALL:
            self.stall(event.node_id)
        else:
            self.recover(event.node_id)

    # ------------------------------------------------------ failure domains
    def bind_domains(
        self, resolver: Callable[[int], Sequence[int]]
    ) -> None:
        """Supply the zone → current-members resolver domain outages need.

        Typically ``deployment.domains.members_of_zone`` (or a closure
        over it); called once by the chaos/endurance driver after the
        plan installs.
        """
        self._domain_resolver = resolver

    def crash_domain(self, zone: int, kind: str = CRASH) -> tuple[int, ...]:
        """Fail every live member of one zone at once; returns the victims.

        ``kind`` selects crash vs stall.  Victims are resolved *now*
        (post-churn membership), filtered to currently-live nodes so a
        node already down is never double-counted, and recorded on
        :attr:`domain_outages`.  Recovery is the caller's (or the
        scheduled event's) responsibility via :meth:`recover_domain`.
        """
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
        for node_id in victims:
            if kind == CRASH:
                self.crash(node_id)
            else:
                self.stall(node_id)
        self.domain_outages.append(
            (self.network.clock.now, zone, kind, victims)
        )
        if self._tracer is not None:
            self._trace(
                "domain_outage",
                {"zone": zone, "kind": kind, "victims": list(victims)},
            )
        return victims

    def recover_domain(self, victims: Sequence[int]) -> None:
        """Bring one domain outage's victims back (departed ones skipped)."""
        for node_id in sorted(victims):
            if node_id in self.network.node_ids and (
                node_id in self._crashed or node_id in self._stalled
            ):
                self.recover(node_id)

    def _apply_domain_outage(self, event: DomainOutageEvent) -> None:
        victims = self.crash_domain(event.zone, kind=event.kind)
        if event.duration != float("inf"):
            self.network.clock.schedule(
                event.duration, self.recover_domain, victims
            )

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
        config = self.plan.config
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
        if self._tracer is None:
            return
        self._tracer.instant(
            name,
            FAULTS_TRACK,
            now,
            "fault",
            (
                _FAULT_KEYS,
                KIND_VALUE[message.kind],
                message.sender,
                message.recipient,
            ),
        )


def domain_partition(
    node_ids: Iterable[int],
    zone_of: Callable[[int], int],
    zone: int,
    start: float = 0.0,
    end: float = float("inf"),
) -> PartitionWindow:
    """A domain-cut partition: one zone severed from everything else.

    Models a top-of-rack or zone-uplink failure where the domain's
    members stay *up* (intra-zone traffic flows) but every link crossing
    the domain boundary is cut for ``[start, end)``.  Raises
    :class:`~repro.errors.FaultConfigError` when either side would be
    empty — a cut that severs nothing is a configuration bug, not
    weather.
    """
    ids = sorted(set(node_ids))
    inside = frozenset(n for n in ids if zone_of(n) == zone)
    outside = frozenset(n for n in ids if zone_of(n) != zone)
    if not inside or not outside:
        raise FaultConfigError(
            f"domain cut of zone {zone} needs members on both sides "
            f"({len(inside)} inside, {len(outside)} outside)"
        )
    return PartitionWindow(
        side_a=inside, side_b=outside, start=start, end=end
    )
