"""Unit tests for the gossip flooding protocol."""

from __future__ import annotations

import pytest

from repro.net.gossip import GossipProtocol
from repro.net.latency import ConstantLatency
from repro.net.message import ENVELOPE_OVERHEAD, Message, MessageKind
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.net.topology import random_regular
from repro.storage.communication import edge_count, full_replication_traffic
from tests.conftest import ring


class GossipHarness:
    """N dummy endpoints sharing one gossip protocol instance."""

    def __init__(self, n: int, topology=None) -> None:
        self.network = Network(
            clock=SimClock(), latency=ConstantLatency(0.01)
        )
        self.received: dict[int, list[object]] = {i: [] for i in range(n)}
        for node_id in range(n):
            self.network.register(node_id, self._endpoint(node_id))
        self.network.set_topology(
            topology or random_regular(list(range(n)), degree=3, seed=0)
        )
        self.gossip = GossipProtocol(
            network=self.network,
            announce_kind=MessageKind.BLOCK_ANNOUNCE,
            request_kind=MessageKind.BLOCK_REQUEST,
            item_kind=MessageKind.BLOCK_BODY,
            item_size=lambda item: 500,
            on_item=lambda node, item: self.received[node].append(item),
        )

    def _endpoint(self, node_id: int):
        harness = self

        class _Endpoint:
            def handle_message(self, message: Message) -> None:
                harness.gossip.handlers[message.kind](None, message)

        return _Endpoint()


class TestFlooding:
    def test_item_reaches_every_node(self):
        harness = GossipHarness(20)
        harness.gossip.publish(0, "item-1", {"data": 1})
        harness.network.run()
        for node in range(1, 20):
            assert harness.received[node] == [{"data": 1}]

    def test_origin_does_not_self_deliver(self):
        harness = GossipHarness(5)
        harness.gossip.publish(0, "item-1", "x")
        harness.network.run()
        assert harness.received[0] == []
        assert harness.gossip.node_has(0, "item-1")

    def test_each_node_receives_once(self):
        harness = GossipHarness(15)
        harness.gossip.publish(3, "item", "payload")
        harness.network.run()
        for node in range(15):
            assert len(harness.received[node]) <= 1

    def test_ring_worst_case_still_floods(self):
        harness = GossipHarness(10, topology=ring(list(range(10))))
        harness.gossip.publish(0, "i", "x")
        harness.network.run()
        assert all(
            harness.gossip.node_has(node, "i") for node in range(10)
        )

    def test_multiple_items_tracked_independently(self):
        harness = GossipHarness(8)
        harness.gossip.publish(0, "a", "A")
        harness.gossip.publish(1, "b", "B")
        harness.network.run()
        assert harness.gossip.node_has(5, "a")
        assert harness.gossip.node_has(5, "b")

    def test_holders_of(self):
        harness = GossipHarness(6)
        harness.gossip.publish(2, "x", "X")
        harness.network.run()
        assert all(harness.gossip.node_has(node, "x") for node in range(6))

    def test_offline_node_misses_item(self):
        harness = GossipHarness(10)
        harness.network.set_online(7, False)
        harness.gossip.publish(0, "x", "X")
        harness.network.run()
        assert not harness.gossip.node_has(7, "x")
        # Everyone else still converges (graph minus node 7 is connected
        # for this seed).
        others = [n for n in range(10) if n != 7]
        assert sum(harness.gossip.node_has(n, "x") for n in others) >= 8

    def test_stats_accumulate(self):
        topology = random_regular(list(range(10)), degree=3, seed=0)
        harness = GossipHarness(10, topology)
        harness.gossip.publish(0, "x", "X")
        harness.network.run()
        sent = harness.network.traffic.messages_by_kind
        edges = edge_count(topology)
        assert sent[MessageKind.BLOCK_ANNOUNCE] == 2 * edges
        assert sent[MessageKind.BLOCK_REQUEST] == 9
        assert sent[MessageKind.BLOCK_BODY] == 9

    def test_foreign_message_not_handled(self):
        harness = GossipHarness(3)
        foreign = Message(
            kind=MessageKind.CONTROL,
            sender=0,
            recipient=1,
            payload=None,
            size_bytes=50,
        )
        assert foreign.kind not in harness.gossip.handlers


class TestFloodCostModel:
    """The exact model's flood term (:mod:`repro.storage.communication`)."""

    @staticmethod
    def flood(n_nodes: int, item_bytes: int):
        edges = edge_count(random_regular(range(n_nodes)))
        return full_replication_traffic(edges, n_nodes, item_bytes)

    def test_cost_scales_with_nodes(self):
        small = sum(size for _, size in self.flood(10, 1000).values())
        large = sum(size for _, size in self.flood(100, 1000).values())
        assert large > small * 8

    def test_cost_dominated_by_item_size_for_big_items(self):
        traffic = self.flood(100, 1_000_000)
        transfers = 99 * (1_000_000 + ENVELOPE_OVERHEAD)
        assert traffic[MessageKind.BLOCK_BODY] == (99, transfers)
        cost = sum(size for _, size in traffic.values())
        assert cost == pytest.approx(transfers, rel=0.01)
