"""Unit tests for latency models, messages, the network fabric, traffic."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnknownNodeError
from repro.net.latency import (
    ConstantLatency,
    CoordinateLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.message import (
    ENVELOPE_OVERHEAD,
    Message,
    MessageKind,
    sized_message,
)
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.sim.faults import FaultConfig, FaultPlan


class Recorder:
    """Test endpoint: remembers what it receives and when."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.received: list[tuple[float, Message]] = []

    def handle_message(self, message: Message) -> None:
        self.received.append((self.network.now, message))


@pytest.fixture
def net() -> Network:
    return Network(
        clock=SimClock(), latency=ConstantLatency(0.1), bandwidth_bps=1000.0
    )


def wire(net: Network, count: int) -> list[Recorder]:
    endpoints = []
    for node_id in range(count):
        endpoint = Recorder(net)
        net.register(node_id, endpoint)
        endpoints.append(endpoint)
    return endpoints


class TestLatencyModels:
    def test_constant_self_delay_zero(self):
        model = ConstantLatency(0.5)
        assert model.delay(3, 3) == 0.0
        assert model.delay(1, 2) == 0.5

    def test_uniform_symmetric_and_stable(self):
        model = UniformLatency(0.01, 0.1, seed=4)
        assert model.delay(1, 2) == model.delay(2, 1)
        assert model.delay(1, 2) == model.delay(1, 2)
        assert 0.01 <= model.delay(1, 2) < 0.1

    def test_uniform_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.2, 0.1)

    def test_coordinate_distance_scaling(self):
        model = CoordinateLatency(
            [(0.0, 0.0), (3.0, 4.0)], seconds_per_unit=0.01, base_seconds=0.0
        )
        assert model.delay(0, 1) == pytest.approx(0.05)  # distance 5

    def test_coordinate_missing_node(self):
        model = CoordinateLatency([(0.0, 0.0)])
        with pytest.raises(ConfigurationError):
            model.delay(0, 5)

    def test_transmission_time(self):
        model = ConstantLatency(0.0)
        assert model.transmission_time(1000, 1000.0) == 1.0
        with pytest.raises(ConfigurationError):
            model.transmission_time(10, 0)

    def test_total_delay_combines(self):
        model = ConstantLatency(0.1)
        assert model.total_delay(0, 1, 500, 1000.0) == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency(0.05),
            CoordinateLatency([(0.0, 0.0), (3.0, 4.0), (-7.5, 0.3)]),
        ],
    )
    def test_one_frame_total_delay_equals_the_base_sum(self, model):
        # The per-message overrides must be the base class's float, bit
        # for bit — delivery times order the whole simulation.
        for sender in range(3):
            for recipient in range(3):
                for size in (40, 76, 12_345):
                    assert model.total_delay(
                        sender, recipient, size, 2.5e6
                    ) == LatencyModel.total_delay(
                        model, sender, recipient, size, 2.5e6
                    )
        with pytest.raises(ConfigurationError, match="bandwidth"):
            model.total_delay(0, 1, 40, 0.0)
        with pytest.raises(ConfigurationError, match="bandwidth"):
            model.total_delay(1, 1, 40, 0.0)

    def test_coordinate_total_delay_missing_node(self):
        model = CoordinateLatency([(0.0, 0.0)])
        with pytest.raises(ConfigurationError, match="node 5"):
            model.total_delay(0, 5, 40)


class TestMessages:
    def test_envelope_added(self):
        message = sized_message(MessageKind.CONTROL, 0, 1, "x", 100)
        assert message.size_bytes == 100 + ENVELOPE_OVERHEAD

    def test_minimum_size_is_envelope(self):
        message = Message(
            kind=MessageKind.CONTROL,
            sender=0,
            recipient=1,
            payload=None,
            size_bytes=0,
        )
        assert message.size_bytes >= ENVELOPE_OVERHEAD

    def test_message_ids_unique(self):
        a = sized_message(MessageKind.CONTROL, 0, 1, None, 0)
        b = sized_message(MessageKind.CONTROL, 0, 1, None, 0)
        assert a.message_id != b.message_id

    def test_ids_strictly_increase_in_construction_order(self):
        # One sequence, whichever constructor built the message.
        built = [
            sized_message(MessageKind.CONTROL, 0, 1, None, 0),
            Message(MessageKind.CONTROL, 0, 1, None, 64),
            Message(
                kind=MessageKind.CONTROL,
                sender=0,
                recipient=1,
                payload=None,
                size_bytes=64,
            ),
            sized_message(MessageKind.CONTROL, 0, 1, None, 0),
        ]
        ids = [message.message_id for message in built]
        assert ids == list(range(ids[0], ids[0] + 4))

    def test_immutable(self):
        message = sized_message(MessageKind.CONTROL, 0, 1, "x", 10)
        for name in (*Message._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(message, name, 1)
        assert not hasattr(message, "__dict__")

    def test_keyword_and_positional_construction_agree(self):
        by_position = Message(MessageKind.TX_BODY, 3, 4, ("p",), 90, 7)
        by_keyword = Message(
            kind=MessageKind.TX_BODY,
            sender=3,
            recipient=4,
            payload=("p",),
            size_bytes=90,
            message_id=7,
        )
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert Message._fields == (
            "kind", "sender", "recipient", "payload", "size_bytes",
            "message_id",
        )  # fmt: skip
        assert sized_message(
            MessageKind.TX_BODY, 3, 4, ("p",), 50
        )._replace(message_id=7) == by_position

    @pytest.mark.parametrize(
        "given, wire",
        [
            (0, ENVELOPE_OVERHEAD),
            (ENVELOPE_OVERHEAD - 1, 2 * ENVELOPE_OVERHEAD - 1),
            (ENVELOPE_OVERHEAD, ENVELOPE_OVERHEAD),
            (500, 500),
        ],
    )
    def test_sizes_below_the_envelope_are_payload_bytes(self, given, wire):
        message = Message(MessageKind.CONTROL, 0, 1, None, given)
        assert message.size_bytes == wire

    def test_equality_and_repr(self):
        a = Message(MessageKind.CONTROL, 0, 1, None, 64, 5)
        assert a == Message(MessageKind.CONTROL, 0, 1, None, 64, 5)
        assert a != Message(MessageKind.CONTROL, 0, 1, None, 64, 6)
        assert a != Message(MessageKind.CONTROL, 0, 2, None, 64, 5)
        assert repr(a) == (
            "Message(kind=<MessageKind.CONTROL: 'control'>, sender=0, "
            "recipient=1, payload=None, size_bytes=64, message_id=5)"
        )
        with pytest.raises(TypeError):  # an unhashable payload, as before
            hash(Message(MessageKind.CONTROL, 0, 1, [], 64, 5))


class TestDelivery:
    def test_delivery_with_latency_and_bandwidth(self, net):
        endpoints = wire(net, 2)
        net.send(sized_message(MessageKind.CONTROL, 0, 1, "hi", 60))
        net.run()
        assert len(endpoints[1].received) == 1
        arrived_at, message = endpoints[1].received[0]
        assert message.payload == "hi"
        assert arrived_at == pytest.approx(0.1 + 100 / 1000.0)

    def test_offline_recipient_drops(self, net):
        endpoints = wire(net, 2)
        net.set_online(1, False)
        net.send(sized_message(MessageKind.CONTROL, 0, 1, "hi", 0))
        net.run()
        assert not endpoints[1].received
        assert net.dropped_messages == 1

    def test_offline_sender_drops_immediately(self, net):
        endpoints = wire(net, 2)
        net.set_online(0, False)
        net.send(sized_message(MessageKind.CONTROL, 0, 1, "hi", 0))
        net.run()
        assert not endpoints[1].received
        assert net.dropped_messages == 1

    def test_recovered_node_receives_again(self, net):
        endpoints = wire(net, 2)
        net.set_online(1, False)
        net.set_online(1, True)
        net.send(sized_message(MessageKind.CONTROL, 0, 1, "hi", 0))
        net.run()
        assert len(endpoints[1].received) == 1

    def test_unknown_liveness_target(self, net):
        with pytest.raises(UnknownNodeError):
            net.set_online(99, True)

    def test_online_count(self, net):
        wire(net, 3)
        assert net.online_count() == 3
        net.set_online(2, False)
        assert net.online_count() == 2

    def test_unregister_removes(self, net):
        wire(net, 2)
        net.unregister(1)
        assert 1 not in net.node_ids
        net.send(sized_message(MessageKind.CONTROL, 0, 1, "hi", 0))
        net.run()
        assert net.dropped_messages == 1

    def test_unregister_drops_topology_entry(self, net):
        """Regression: departed nodes used to linger in the peer map."""
        wire(net, 3)
        net.set_topology({0: (1, 2), 1: (0,), 2: (0,)})
        net.unregister(2)
        with pytest.raises(UnknownNodeError):
            net.peers_of(2)
        # Re-registering starts from a clean (empty) peer list, not the
        # stale one.
        net.register(2, Recorder(net))
        assert net.peers_of(2) == ()


class TestTopologyAccess:
    def test_peers_of_unknown_raises(self, net):
        with pytest.raises(UnknownNodeError):
            net.peers_of(42)

    def test_set_topology(self, net):
        wire(net, 3)
        net.set_topology({0: (1,), 1: (0, 2), 2: (1,)})
        assert net.peers_of(1) == (0, 2)


class TestTrafficAccounting:
    def test_counters_updated_on_delivery(self, net):
        wire(net, 2)
        net.send(sized_message(MessageKind.TX_BODY, 0, 1, "tx", 100))
        net.run()
        traffic = net.traffic
        assert traffic.total_messages == 1
        assert traffic.total_bytes == 100 + ENVELOPE_OVERHEAD
        assert traffic.bytes_by_kind[MessageKind.TX_BODY] > 0
        assert traffic.bytes_sent_by_node[0] == traffic.total_bytes
        assert traffic.bytes_received_by_node[1] == traffic.total_bytes

    def test_dropped_messages_not_counted(self, net):
        wire(net, 2)
        net.set_online(1, False)
        net.send(sized_message(MessageKind.TX_BODY, 0, 1, "tx", 100))
        net.run()
        assert net.traffic.total_messages == 0

    def test_snapshot_delta(self, net):
        wire(net, 2)
        net.send(sized_message(MessageKind.TX_BODY, 0, 1, "a", 10))
        net.run()
        first = net.traffic.snapshot()
        net.send(sized_message(MessageKind.BLOCK_BODY, 0, 1, "b", 20))
        net.run()
        delta = net.traffic.snapshot().delta(first)
        assert delta.total_messages == 1
        assert delta.total_bytes == 20 + ENVELOPE_OVERHEAD
        assert MessageKind.TX_BODY not in delta.bytes_by_kind

    def test_bytes_for_kinds(self, net):
        wire(net, 2)
        net.send(sized_message(MessageKind.TX_BODY, 0, 1, "a", 10))
        net.send(sized_message(MessageKind.BLOCK_BODY, 0, 1, "b", 20))
        net.run()
        subtotal = net.traffic.bytes_for_kinds({MessageKind.TX_BODY})
        assert subtotal == 10 + ENVELOPE_OVERHEAD

    def test_totals_equal_breakdown_sums_after_faulted_run(self, net):
        # Drops never reach the ledger, duplicates are two deliveries:
        # whatever the weather, the totals and the three breakdowns are
        # one account of the same deliveries.
        endpoints = wire(net, 6)
        FaultPlan(
            config=FaultConfig(seed=3, drop_rate=0.3, duplicate_rate=0.3)
        ).install(net)
        kinds = (MessageKind.CONTROL, MessageKind.TX_BODY, MessageKind.DHT_PING)
        for index in range(300):
            message = sized_message(
                kinds[index % 3], index % 6, (index * 5 + 1) % 6, None, index
            )
            if index % 2:
                net.send(message)
            else:
                net.send_many([message])
        net.set_online(5, False)
        net.run()
        ledger = net.traffic
        delivered = [m for endpoint in endpoints for _, m in endpoint.received]
        assert net.faults.stats.dropped and net.faults.stats.duplicated
        assert net.dropped_messages > net.faults.stats.dropped  # + offline
        assert ledger.total_messages == len(delivered)
        assert ledger.total_messages == sum(ledger.messages_by_kind.values())
        assert ledger.total_bytes == sum(m.size_bytes for m in delivered)
        assert ledger.total_bytes == sum(ledger.bytes_by_kind.values())
        assert ledger.total_bytes == sum(ledger.bytes_sent_by_node.values())
        assert ledger.total_bytes == sum(
            ledger.bytes_received_by_node.values()
        )
        assert 5 not in ledger.bytes_received_by_node
