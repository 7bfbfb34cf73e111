"""Unit tests for the fault-injection layer and the retry substrate."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.protocols.reliability import (
    DEFAULT_RETRY_POLICY,
    PROBE_RETRY_POLICY,
    RequestTracker,
    RetryPolicy,
)
from repro.sim.faults import (
    FaultConfig,
    FaultInjector,
    FaultStats,
    PartitionWindow,
)


class Recorder:
    """Test endpoint: remembers what it receives and when."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.received: list[tuple[float, Message]] = []

    def handle_message(self, message: Message) -> None:
        self.received.append((self.network.now, message))


def wire(net: Network, count: int) -> list[Recorder]:
    endpoints = []
    for node_id in range(count):
        endpoint = Recorder(net)
        net.register(node_id, endpoint)
        endpoints.append(endpoint)
    return endpoints


@pytest.fixture
def net() -> Network:
    return Network(
        clock=SimClock(),
        latency=ConstantLatency(0.1),
        bandwidth_bps=1e9,
    )


def send_one(net: Network, sender: int = 0, recipient: int = 1) -> None:
    net.send(
        Message(
            kind=MessageKind.CONTROL,
            sender=sender,
            recipient=recipient,
            payload=("ping",),
            size_bytes=64,
        )
    )


class TestFaultConfig:
    def test_defaults_are_clean(self):
        config = FaultConfig()
        assert config.drop_rate == 0.0
        assert config.delay_seconds == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"duplicate_rate": 1.5},
            {"delay_rate": -1.0},
            {"drop_rate": 0.6, "duplicate_rate": 0.6},
            {"delay_seconds": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)


class TestPartitionWindow:
    def test_sides_must_be_disjoint(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(frozenset({1, 2}), frozenset({2, 3}))

    def test_empty_side_rejected(self):
        """A cut that severs nothing is a configuration bug, not weather."""
        with pytest.raises(ConfigurationError):
            PartitionWindow(frozenset(), frozenset({2, 3}))
        with pytest.raises(ConfigurationError):
            PartitionWindow(frozenset({1}), frozenset())

    def test_window_must_not_invert(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(frozenset({1}), frozenset({2}), start=5.0, end=1.0)

    def test_severs_both_directions(self):
        window = PartitionWindow(frozenset({1}), frozenset({2}))
        assert window.severs(1, 2, now=0.0)
        assert window.severs(2, 1, now=0.0)

    def test_within_side_untouched(self):
        window = PartitionWindow(frozenset({1, 2}), frozenset({3}))
        assert not window.severs(1, 2, now=0.0)
        assert not window.severs(3, 4, now=0.0)  # 4 is on neither side

    def test_time_window_half_open(self):
        window = PartitionWindow(
            frozenset({1}), frozenset({2}), start=1.0, end=2.0
        )
        assert not window.severs(1, 2, now=0.5)
        assert window.severs(1, 2, now=1.0)
        assert not window.severs(1, 2, now=2.0)

    def test_exact_boundaries(self):
        """The half-open contract at the edges: [start, end)."""
        window = PartitionWindow(
            frozenset({1}), frozenset({2}), start=3.0, end=7.0
        )
        assert window.severs(1, 2, now=3.0)  # inclusive start
        assert window.severs(2, 1, now=6.999999)
        assert not window.severs(1, 2, now=7.0)  # exclusive end
        assert not window.severs(1, 2, now=7.000001)

    def test_zero_length_window_never_severs(self):
        window = PartitionWindow(
            frozenset({1}), frozenset({2}), start=5.0, end=5.0
        )
        assert not window.severs(1, 2, now=5.0)
        assert not window.severs(1, 2, now=4.999999)
        assert not window.severs(1, 2, now=5.000001)


class TestFaultStats:
    def test_as_dict_covers_every_counter(self):
        stats = FaultStats(dropped=3, partition_dropped=2, stall_dropped=1)
        view = asdict(stats)
        assert view["dropped"] == 3
        assert set(view) == {
            "intercepted",
            "dropped",
            "duplicated",
            "delayed",
            "partition_dropped",
            "stall_dropped",
            "crashes",
            "stalls",
            "recoveries",
        }


class TestFaultInjector:
    def test_certain_drop_loses_everything(self, net):
        endpoints = wire(net, 2)
        FaultInjector.install(net, FaultConfig(drop_rate=1.0))
        for _ in range(5):
            send_one(net)
        net.run()
        assert endpoints[1].received == []
        assert net.faults.stats.dropped == 5
        assert net.faults.stats.intercepted == 5

    def test_certain_duplicate_delivers_twice(self, net):
        endpoints = wire(net, 2)
        FaultInjector.install(net, FaultConfig(duplicate_rate=1.0))
        send_one(net)
        net.run()
        assert len(endpoints[1].received) == 2
        assert net.faults.stats.duplicated == 1

    def test_certain_delay_adds_spike(self, net):
        endpoints = wire(net, 2)
        send_one(net)
        net.run()
        clean_at = endpoints[1].received[0][0]
        FaultInjector.install(
            net, FaultConfig(delay_rate=1.0, delay_seconds=3.0)
        )
        base = net.now
        send_one(net)
        net.run()
        spiked_at = endpoints[1].received[1][0]
        assert spiked_at - base == pytest.approx(clean_at + 3.0)
        assert net.faults.stats.delayed == 1

    def test_clean_config_consumes_no_draws(self, net):
        endpoints = wire(net, 2)
        injector = FaultInjector.install(net)
        state = injector._rng.getstate()
        send_one(net)
        net.run()
        assert injector._rng.getstate() == state
        assert len(endpoints[1].received) == 1
        assert injector.stats.intercepted == 1

    def test_stall_drops_both_directions(self, net):
        endpoints = wire(net, 3)
        injector = FaultInjector.install(net)
        injector.stall(1)
        assert not injector.is_live(1)
        assert net.is_online(1)  # stalled, not crashed
        send_one(net, sender=0, recipient=1)
        send_one(net, sender=1, recipient=2)
        send_one(net, sender=0, recipient=2)
        net.run()
        assert endpoints[1].received == []
        assert len(endpoints[2].received) == 1
        assert injector.stats.stall_dropped == 2

    def test_crash_and_recover_via_injector(self, net):
        endpoints = wire(net, 2)
        injector = FaultInjector.install(net)
        injector.crash(1)
        assert not net.is_online(1)
        send_one(net)
        net.run()
        assert endpoints[1].received == []
        injector.recover(1)
        assert net.is_online(1)
        assert injector.is_live(1)
        send_one(net)
        net.run()
        assert len(endpoints[1].received) == 1
        assert injector.stats.crashes == 1
        assert injector.stats.recoveries == 1

    def test_partition_severs_and_heals(self, net):
        endpoints = wire(net, 4)
        injector = FaultInjector.install(net)
        injector.partition(
            PartitionWindow(frozenset({0, 1}), frozenset({2, 3}))
        )
        send_one(net, sender=0, recipient=2)
        send_one(net, sender=0, recipient=1)
        net.run()
        assert endpoints[2].received == []
        assert len(endpoints[1].received) == 1
        assert injector.stats.partition_dropped == 1
        injector.heal()
        send_one(net, sender=0, recipient=2)
        net.run()
        assert len(endpoints[2].received) == 1

    def test_heal_recovers_everyone(self, net):
        wire(net, 4)
        injector = FaultInjector.install(net)
        injector.crash(1)
        injector.stall(2)
        injector.heal()
        assert net.is_online(1)
        assert injector.is_live(1)
        assert injector.is_live(2)
        assert injector.stats.recoveries == 2

    def test_heal_after_crashed_node_departed(self, net):
        # Regression: churn removed a node while it was down, and heal()
        # raised UnknownNodeError trying to bring it back online.
        wire(net, 3)
        injector = FaultInjector.install(net)
        injector.crash(1)
        injector.stall(2)
        net.unregister(1)
        net.unregister(2)
        injector.heal()
        assert not injector._crashed
        assert not injector._stalled
        assert not net.is_online(1)

    def test_same_seed_same_interception_stream(self):
        def run(seed: int) -> dict[str, int]:
            net = Network(clock=SimClock(), latency=ConstantLatency(0.1))
            wire(net, 2)
            injector = FaultInjector.install(
                net,
                FaultConfig(
                    seed=seed,
                    drop_rate=0.2,
                    duplicate_rate=0.1,
                    delay_rate=0.1,
                ),
            )
            for _ in range(200):
                send_one(net)
            net.run()
            return asdict(injector.stats)

        first, second = run(9), run(9)
        assert first == second
        assert first != run(10)
        assert first["dropped"] > 0
        assert first["duplicated"] > 0
        assert first["delayed"] > 0


class TestLiveMembers:
    def test_without_injector_filters_offline(self, net):
        wire(net, 3)
        net.set_online(1, False)
        assert net.live_members([0, 1, 2]) == [0, 2]

    def test_with_injector_filters_stalled_too(self, net):
        wire(net, 3)
        injector = FaultInjector.install(net)
        injector.stall(2)
        net.set_online(1, False)
        assert net.live_members([0, 1, 2]) == [0]

    def test_preserves_order(self, net):
        wire(net, 3)
        assert net.live_members([2, 0, 1]) == [2, 0, 1]

    def test_mixed_crashed_and_stalled(self, net):
        """Crashed and stalled members drop out; everyone else stays."""
        wire(net, 5)
        injector = FaultInjector.install(net)
        injector.crash(1)
        injector.stall(3)
        assert net.live_members([0, 1, 2, 3, 4]) == [0, 2, 4]
        injector.recover(1)
        assert net.live_members([0, 1, 2, 3, 4]) == [0, 1, 2, 4]
        injector.recover(3)
        assert net.live_members([0, 1, 2, 3, 4]) == [0, 1, 2, 3, 4]


class TestRetryPolicy:
    def test_default_matches_historical_query_engine(self):
        assert DEFAULT_RETRY_POLICY.base_timeout == 2.0
        assert DEFAULT_RETRY_POLICY.backoff == 1.0
        assert DEFAULT_RETRY_POLICY.timeout_for(1) == 2.0
        assert DEFAULT_RETRY_POLICY.timeout_for(7) == 2.0
        assert DEFAULT_RETRY_POLICY.max_attempts(3) == 6

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_timeout=1.0, backoff=2.0, max_timeout=5.0)
        assert [policy.timeout_for(i) for i in (1, 2, 3, 4)] == [
            1.0,
            2.0,
            4.0,
            5.0,
        ]

    def test_probe_policy_paces_2_4_8_16(self):
        assert [
            PROBE_RETRY_POLICY.timeout_for(i) for i in (1, 2, 3, 4)
        ] == [2.0, 4.0, 8.0, 16.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_timeout": 0.0},
            {"backoff": 0.5},
            {"max_timeout": 1.0, "base_timeout": 2.0},
            {"rounds": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TrackerHarness:
    """A tracker over a bare simclock with recorded sends and events.

    The harness is its own router: the tracker reports to ``note_*``.
    """

    KIND = "test_request"

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.clock = SimClock()
        self.sends: list[int] = []
        self.events: list[str] = []
        self.tracker = RequestTracker(self.clock, self, policy=policy)

    def note_retry(self, kind: str) -> None:
        assert kind == self.KIND
        self.events.append("retry")

    def note_timeout(self, kind: str) -> None:
        assert kind == self.KIND
        self.events.append("timeout")

    def note_degraded(self, kind: str) -> None:
        assert kind == self.KIND
        self.events.append("degraded")

    def begin(self, request_id: int, plan: list[int], context=None):
        return self.tracker.begin(
            request_id,
            self.KIND,
            plan,
            send=lambda target, request: self.sends.append(target),
            context=context,
        )


class TestRequestTracker:
    def test_empty_plan_degrades_immediately(self):
        harness = TrackerHarness()
        request = harness.begin(0, [])
        assert request.degraded is not None
        assert request.degraded.reason == "no-reachable-replica"
        assert harness.sends == []
        assert harness.events == ["degraded"]
        assert not harness.tracker.pending

    def test_clean_resolve_sends_once(self):
        harness = TrackerHarness()
        context = object()
        harness.begin(0, [5, 6], context=context)
        assert harness.sends == [5]
        resolved = harness.tracker.resolve(0)
        assert resolved.kind == harness.KIND and resolved.context is context
        assert not harness.tracker.pending
        harness.clock.run()  # the stale deadline fires as a no-op
        assert harness.sends == [5]
        assert harness.events == []

    def test_timeouts_fail_over_round_robin_then_degrade(self):
        harness = TrackerHarness()
        request = harness.begin(0, [5, 6])
        harness.clock.run()
        # Default policy: 2 rounds over a 2-peer plan, then give up.
        assert harness.sends == [5, 6, 5, 6]
        assert request.degraded is not None
        assert request.degraded.reason == "retries-exhausted"
        assert request.timeouts == 4
        assert request.failovers == 3
        assert harness.events.count("timeout") == 4
        assert harness.events.count("retry") == 3
        assert harness.events[-1] == "degraded"
        assert not harness.tracker.pending  # a degraded request is let go

    def test_single_peer_plan_counts_no_failovers(self):
        harness = TrackerHarness()
        request = harness.begin(0, [9])
        harness.clock.run()
        assert harness.sends == [9, 9]
        assert request.failovers == 0

    def test_advance_moves_to_next_peer_immediately(self):
        harness = TrackerHarness()
        harness.begin(0, [5, 6])
        harness.tracker.advance(0)
        assert harness.sends == [5, 6]
        assert harness.clock.now == 0.0

    def test_resolve_after_advance_stops_retries(self):
        harness = TrackerHarness()
        harness.begin(0, [5, 6])
        harness.tracker.advance(0)
        harness.tracker.resolve(0)
        harness.clock.run()
        assert harness.sends == [5, 6]
        assert 0 not in harness.tracker.pending

    def test_backoff_paces_deadlines(self):
        policy = RetryPolicy(
            base_timeout=1.0, backoff=2.0, max_timeout=100.0, rounds=3
        )
        harness = TrackerHarness(policy=policy)
        request = harness.begin(0, [4])
        harness.clock.run()
        # Deadlines at 1, +2, +4 virtual seconds: degrade at t=7.
        assert request.degraded.at == pytest.approx(7.0)
        assert harness.sends == [4, 4, 4]

    def test_abandon_degrades_with_the_given_reason(self):
        harness = TrackerHarness()
        request = harness.begin(0, [5, 6])
        harness.tracker.abandon(0, "requester-departed")
        assert request.degraded.reason == "requester-departed"
        harness.tracker.abandon(0, "again")  # inactive: no second verdict
        harness.tracker.abandon(404, "unknown id")
        harness.clock.run()  # the stale deadline fires as a no-op
        assert harness.sends == [5]
        assert harness.events == ["degraded"]

    def test_unknown_request_ids_are_ignored(self):
        harness = TrackerHarness()
        harness.tracker.advance(404)
        assert harness.tracker.resolve(404) is None
        assert harness.sends == []


def test_endurance_leaves_no_request_or_watch_behind():
    """Every request ends resolved or degraded and every watch ends:
    after a drained storm no tracker still holds one (a retained
    request pins its ``send`` closure and everything that captured)."""
    from repro.sim.chaos import EnduranceConfig, run_endurance
    from tests.conftest import TEST_LIMITS

    outcome = run_endurance(
        EnduranceConfig(seed=7, adaptive=True, domains=True),
        limits=TEST_LIMITS,
    )
    deployment = outcome.deployment
    deployment.run()
    assert deployment.metrics.router_stats.total_degraded > 0
    trackers = {
        "query": deployment.query.tracker,
        "repair": deployment.repair.tracker,
        "dht": deployment.dht.tracker,
        "watches": deployment.reliability,
    }
    assert {
        name: len(tracker.pending) for name, tracker in trackers.items()
    } == dict.fromkeys(trackers, 0)
    assert not deployment.reliability.watching
