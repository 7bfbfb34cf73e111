"""Protocol engines in isolation, plus the refactor's determinism pin.

The dissemination and query engines are driven against a minimal stub
deployment — real network/clock/router, stub sibling engines — so each
engine's behaviour is observable without a full ``ICIDeployment``.  The
final test pins a fixed-seed end-to-end scenario to golden values
captured on the pre-refactor monolith, proving the engine split changed
no behaviour.
"""

from __future__ import annotations

import hashlib

from repro.chain.block import Block, build_block
from repro.chain.chainstore import Ledger
from repro.chain.genesis import make_genesis
from repro.chain.transaction import (
    OutPoint,
    make_coinbase,
    make_signed_transfer,
)
from repro.clustering.membership import ClusterTable
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.core.metrics import DeploymentMetrics
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.net.topology import clustered_topology
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.dissemination import DisseminationEngine
from repro.protocols.query import QueryEngine
from repro.protocols.router import MessageRouter
from repro.sim.runner import ScenarioRunner
from repro.storage.placement import RendezvousPlacement
from tests.conftest import TEST_LIMITS, make_transfer_block


class StubVerification:
    """Records the calls dissemination makes into the verification engine."""

    def __init__(self) -> None:
        self.rounds_opened: list[tuple[int, bytes]] = []
        self.replayed: list[tuple[int, bytes]] = []
        self.started: list[tuple[int, bytes]] = []

    def ensure_round(self, node, header) -> None:
        self.rounds_opened.append((node.node_id, header.block_hash))

    def replay_pending(self, node, block_hash) -> None:
        self.replayed.append((node.node_id, block_hash))

    def start_verification(self, node, block) -> None:
        self.started.append((node.node_id, block.block_hash))


class StubQuery:
    """Records serve/miss hand-offs from the dissemination engine."""

    def __init__(self) -> None:
        self.served: list[tuple[int, bytes]] = []
        self.missed: list[int] = []

    def on_served(self, node, request_id, block) -> None:
        self.served.append((request_id, block.block_hash))

    def on_miss(self, request_id) -> None:
        self.missed.append(request_id)


class EngineHarness:
    """Single-cluster stand-in deployment: just what one engine needs."""

    def __init__(self, n_nodes: int = 4, replication: int = 2) -> None:
        self.network = Network()
        self.config = ICIConfig(
            n_clusters=1, replication=replication, limits=TEST_LIMITS
        )
        self.genesis = make_genesis([KeyPair.from_seed(0).address])
        self.ledger = Ledger(genesis=self.genesis, limits=TEST_LIMITS)
        self.metrics = DeploymentMetrics()
        self.router = MessageRouter()
        self.nodes: dict[int, ClusterNode] = {}
        for node_id in range(n_nodes):
            node = ClusterNode(
                node_id, self.network, cluster_id=0, limits=TEST_LIMITS
            )
            node.attach(self)
            node.store.add_header(self.genesis.header)
            self.nodes[node_id] = node
        members = list(range(n_nodes))
        self.clusters = ClusterTable.from_assignment([members])
        self.network.set_topology(clustered_topology([members], seed=0))
        self.placement = RendezvousPlacement()
        self.verification = StubVerification()
        self.query = StubQuery()

    # Deployment protocol surface the engines touch.
    def on_message(self, node: BaseNode, message: Message) -> None:
        self.router.dispatch(node, message)

    def note_send(self, message: Message) -> None:
        self.router.note_send(message)

    def holders_in_cluster(self, header, cluster_id: int) -> tuple[int, ...]:
        return self.placement.holders(
            header,
            self.clusters.members_of(cluster_id),
            self.config.replication,
        )

    def aggregator_for(self, header, cluster_id: int) -> int:
        return self.holders_in_cluster(header, cluster_id)[0]

    def run(self) -> None:
        self.network.run()


def invalid_next_block(genesis: Block) -> Block:
    """A height-1 block spending an outpoint that does not exist."""
    ghost = make_signed_transfer(
        sender=KeyPair.from_seed(5),
        spendable=[(OutPoint(txid=sha256(b"ghost"), index=0), 100)],
        recipient_address=KeyPair.from_seed(6).address,
        amount=10,
    )
    coinbase = make_coinbase(
        reward=TEST_LIMITS.block_reward,
        miner_address=KeyPair.from_seed(5).address,
        height=1,
    )
    return build_block(
        height=1,
        prev_hash=genesis.block_hash,
        transactions=[coinbase, ghost],
        timestamp=genesis.header.timestamp + 1.0,
    )


class TestDisseminationEngineIsolated:
    def make_engine(self, **kwargs) -> tuple[EngineHarness, DisseminationEngine]:
        harness = EngineHarness(**kwargs)
        engine = DisseminationEngine(harness)
        engine.install(harness.router)
        return harness, engine

    def test_disseminate_places_bodies_at_holders_only(self):
        harness, engine = self.make_engine()
        block = make_transfer_block(
            Ledger(genesis=harness.genesis, limits=TEST_LIMITS),
            KeyPair.from_seed(0),
            KeyPair.from_seed(1),
            500,
        )
        engine.disseminate(block, proposer_id=0)
        harness.run()
        assert engine.block_valid[block.block_hash] is True
        holders = set(harness.holders_in_cluster(block.header, 0))
        for node in harness.nodes.values():
            assert node.store.has_header(block.block_hash)
            assert node.store.has_body(block.block_hash) == (
                node.node_id in holders
            )
        # Verification was started exactly once per holder, nowhere else.
        started = {
            node_id
            for node_id, block_hash in harness.verification.started
            if block_hash == block.block_hash
        }
        assert started == holders

    def test_invalid_block_recorded_as_invalid_oracle_verdict(self):
        harness, engine = self.make_engine()
        block = invalid_next_block(harness.genesis)
        engine.disseminate(block, proposer_id=0)
        harness.run()
        assert engine.block_valid[block.block_hash] is False
        assert harness.ledger.height == 0  # canonical chain untouched

    def test_orphan_body_buffered_until_parent_header_lands(self):
        harness, engine = self.make_engine()
        chain = Ledger(genesis=harness.genesis, limits=TEST_LIMITS)
        block1 = make_transfer_block(
            chain, KeyPair.from_seed(0), KeyPair.from_seed(1), 500
        )
        chain.accept_block(block1)
        block2 = make_transfer_block(
            chain, KeyPair.from_seed(1), KeyPair.from_seed(2), 200
        )
        node = harness.nodes[3]
        engine.on_body(node, block2, fan_out=False)
        assert block2.block_hash in engine.orphan_bodies[node.node_id]
        assert harness.verification.started == []
        # The parent header arriving releases the buffered body.
        engine.note_header(node, block1.header)
        assert engine.orphan_bodies[node.node_id] == {}
        assert (node.node_id, block2.block_hash) in (
            harness.verification.started
        )

    def test_serve_and_miss_tags_route_to_query_engine(self):
        harness, engine = self.make_engine()
        block = make_transfer_block(
            Ledger(genesis=harness.genesis, limits=TEST_LIMITS),
            KeyPair.from_seed(0),
            KeyPair.from_seed(1),
            500,
        )
        harness.nodes[1].send(
            MessageKind.BLOCK_BODY, 0, ("serve", 7, block), block.size_bytes
        )
        harness.nodes[2].send(MessageKind.BLOCK_BODY, 0, ("miss", 9), 32)
        harness.run()
        assert harness.query.served == [(7, block.block_hash)]
        assert harness.query.missed == [9]

    def test_submitted_transaction_gossips_to_every_mempool(self):
        harness, engine = self.make_engine()
        tx = make_signed_transfer(
            sender=KeyPair.from_seed(0),
            spendable=harness.ledger.utxos.outpoints_of(
                KeyPair.from_seed(0).address
            ),
            recipient_address=KeyPair.from_seed(1).address,
            amount=250,
        )
        assert engine.submit_transaction(tx, origin_id=0) is True
        harness.run()
        for node in harness.nodes.values():
            assert node.mempool is not None and tx.txid in node.mempool
        assert engine.submit_transaction(tx, origin_id=0) is False


class TestQueryEngineIsolated:
    def make_engine(self, **kwargs) -> tuple[EngineHarness, QueryEngine]:
        harness = EngineHarness(**kwargs)
        engine = QueryEngine(harness)
        engine.install(harness.router)

        # Stand-in for the dissemination engine's BLOCK_BODY handler:
        # route serve/miss replies straight back into the query engine.
        def on_body(node: BaseNode, message: Message) -> None:
            tag = message.payload[0]
            if tag == "serve":
                _, request_id, block = message.payload
                engine.on_served(node, request_id, block)
            elif tag == "miss":
                engine.on_miss(message.payload[1])

        harness.router.register(
            MessageKind.BLOCK_BODY, on_body, owner="test-stub"
        )
        return harness, engine

    def seal_block(self, harness: EngineHarness) -> Block:
        block = make_transfer_block(
            Ledger(genesis=harness.genesis, limits=TEST_LIMITS),
            KeyPair.from_seed(0),
            KeyPair.from_seed(1),
            500,
        )
        for node in harness.nodes.values():
            node.store.add_header(block.header)
        return block

    def test_local_hit_completes_without_traffic(self):
        harness, engine = self.make_engine()
        block = self.seal_block(harness)
        harness.nodes[2].assign_body(block)
        record = engine.retrieve_block(2, block.block_hash)
        assert record.completed_at == harness.network.now
        assert harness.network.traffic.total_messages == 0

    def test_remote_fetch_served_by_plan_holder(self):
        harness, engine = self.make_engine()
        block = self.seal_block(harness)
        for holder in harness.holders_in_cluster(block.header, 0):
            harness.nodes[holder].assign_body(block)
        requester = next(
            node_id
            for node_id in harness.nodes
            if node_id not in harness.holders_in_cluster(block.header, 0)
        )
        record = engine.retrieve_block(requester, block.block_hash)
        assert record.completed_at is None
        harness.run()
        assert record.completed_at is not None
        assert record.latency is not None and record.latency > 0
        traffic = harness.network.traffic
        assert traffic.messages_by_kind[MessageKind.BLOCK_REQUEST] >= 1

    def test_miss_reply_advances_to_next_holder(self):
        harness, engine = self.make_engine()
        block = self.seal_block(harness)
        holders = harness.holders_in_cluster(block.header, 0)
        # Only the *last* planned holder actually has the body; every
        # earlier attempt answers "miss" and the plan advances.
        harness.nodes[holders[-1]].assign_body(block)
        requester = next(
            node_id
            for node_id in harness.nodes
            if node_id not in holders
        )
        record = engine.retrieve_block(requester, block.block_hash)
        harness.run()
        assert record.completed_at is not None
        # attempts starts at 1; each miss advances it by one.
        assert record.attempts == len(holders)

    def test_unresolvable_query_gives_up_incomplete(self):
        harness, engine = self.make_engine()
        block = self.seal_block(harness)  # headers known, no body anywhere
        record = engine.retrieve_block(0, block.block_hash)
        harness.run()
        assert record.completed_at is None
        node = harness.nodes[0]
        plan = engine._plan_holders(
            node, node.store.header(block.block_hash), 0
        )
        assert record.attempts > 2 * len(plan)  # every holder tried twice

    def test_offline_holder_times_out_then_retries(self):
        harness, engine = self.make_engine()
        block = self.seal_block(harness)
        holders = harness.holders_in_cluster(block.header, 0)
        for holder in holders:
            harness.nodes[holder].assign_body(block)
        harness.network.set_online(holders[0], False)
        requester = next(
            node_id
            for node_id in harness.nodes
            if node_id not in holders
        )
        record = engine.retrieve_block(requester, block.block_hash)
        harness.run()
        assert record.completed_at is not None
        assert record.attempts == 2  # the timeout advanced the plan once
        assert record.latency is not None and record.latency > 2.0

    def test_requester_departing_mid_retry_degrades(self):
        # Regression: the deadline retry indexed the departed requester
        # and a KeyError escaped SimClock.step.
        harness, engine = self.make_engine()
        block = self.seal_block(harness)
        holders = harness.holders_in_cluster(block.header, 0)
        for holder in holders:
            harness.network.set_online(holder, False)
        requester = next(
            node_id
            for node_id in harness.nodes
            if node_id not in holders
        )
        record = engine.retrieve_block(requester, block.block_hash)
        harness.network.run_for(1.0)  # attempt 1 sent, deadline pending
        del harness.nodes[requester]
        harness.network.unregister(requester)
        harness.run()
        assert record.completed_at is None
        assert record.degraded
        assert record.attempts == 2  # the retry that found nobody home


class TestDeterminismRegression:
    """Fixed-seed scenario must finalize the identical chain pre/post split.

    The golden values below were captured by running this exact scenario
    on the pre-refactor monolithic ``ICIDeployment`` (commit 52d6bbf).
    Any drift means the engine decomposition changed protocol behaviour.
    """

    GOLDEN_CHAIN_DIGEST = (
        "59abdf4a8d6fdd0e93fa526d73905ba446155b05815d2e024214ed8be260a768"
    )

    def test_fixed_seed_chain_matches_pre_refactor_golden(self):
        config = ICIConfig(
            n_clusters=4, replication=2, limits=TEST_LIMITS, seed=7
        )
        deployment = ICIDeployment(16, config=config)
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=7)
        runner.produce_blocks(6, txs_per_block=4)
        join = deployment.join_new_node()
        deployment.run()

        ledger = deployment.ledger
        digest = hashlib.sha256(
            b"".join(
                ledger.active_hash_at(height)
                for height in range(ledger.height + 1)
            )
        ).hexdigest()
        assert digest == self.GOLDEN_CHAIN_DIGEST
        assert ledger.height == 6
        assert deployment.total_finalized_blocks() == 6
        assert deployment.network.traffic.total_messages == 949
        assert deployment.network.traffic.total_bytes == 188394
        assert deployment.network.now == 2.7534743999999995
        assert join.total_bytes == 2524

    def test_router_instrumentation_observes_the_scenario(self):
        config = ICIConfig(
            n_clusters=4, replication=2, limits=TEST_LIMITS, seed=7
        )
        deployment = ICIDeployment(16, config=config)
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=7)
        runner.produce_blocks(3, txs_per_block=2)

        stats = deployment.metrics.router_stats
        assert stats.total_deliveries > 0
        assert stats.total_sends > 0
        assert stats.finalize_events > 0
        # Every delivered kind was a registered one (dispatch would have
        # raised otherwise); spot-check the taxonomy keys are enum values.
        for kind in stats.deliveries:
            assert MessageKind(kind) in deployment.router.handled_kinds
