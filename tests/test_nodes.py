"""Unit tests for the node runtime roles."""

from __future__ import annotations

import pytest

from repro.chain.genesis import make_genesis
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.net.latency import ConstantLatency
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.node.fullnode import FullNode
from repro.node.lightnode import LightNode
from tests.conftest import TEST_LIMITS, make_transfer_block


@pytest.fixture
def net() -> Network:
    return Network(latency=ConstantLatency(0.01))


class EchoDeployment:
    """Records every routed message."""

    def __init__(self) -> None:
        self.seen: list[tuple[int, Message]] = []

    def on_message(self, node, message: Message) -> None:
        self.seen.append((node.node_id, message))


class TestBaseNode:
    def test_registers_on_network(self, net):
        node = BaseNode(3, net)
        assert 3 in net.node_ids
        assert net.is_online(node.node_id)

    def test_routes_to_deployment(self, net):
        deployment = EchoDeployment()
        a = BaseNode(0, net)
        b = BaseNode(1, net)
        b.attach(deployment)
        a.send(MessageKind.CONTROL, 1, "ping", 10)
        net.run()
        assert deployment.seen[0][0] == 1
        assert deployment.seen[0][1].payload == "ping"

    def test_unattached_node_drops_silently(self, net):
        a = BaseNode(0, net)
        BaseNode(1, net)
        a.send(MessageKind.CONTROL, 1, "ping", 10)
        net.run()  # no exception

    def test_deterministic_identity(self, net):
        assert BaseNode(5, net).address == KeyPair.from_seed(5).address


class TestFullNode:
    def test_accepts_and_tracks_balance(self, net, alice, bob):
        genesis = make_genesis([alice.address])
        node = FullNode(0, net, genesis, limits=TEST_LIMITS)
        block = make_transfer_block(node.ledger, alice, bob, 500)
        assert node.accept_block(block)
        assert node.ledger.height == 1
        assert node.ledger.utxos.balance_of(bob.address) >= 500

    def test_mempool_pruned_on_block(self, net, alice, bob):
        genesis = make_genesis([alice.address])
        node = FullNode(0, net, genesis, limits=TEST_LIMITS)
        block = make_transfer_block(node.ledger, alice, bob, 500)
        transfer = block.transactions[1]
        node.mempool.add(transfer, node.ledger.utxos)
        assert transfer.txid in node.mempool
        node.accept_block(block)
        assert transfer.txid not in node.mempool

    def test_store_is_ledger_store(self, net, alice):
        genesis = make_genesis([alice.address])
        node = FullNode(0, net, genesis, limits=TEST_LIMITS)
        assert node.store is node.ledger.store


class TestClusterNode:
    def test_assignment_lifecycle(self, net, genesis):
        node = ClusterNode(0, net, cluster_id=2, limits=TEST_LIMITS)
        node.assign_body(genesis)
        assert node.is_holder_of(genesis.block_hash)
        assert node.store.body(genesis.block_hash) == genesis

    def test_unassign_frees_bytes(self, net, genesis):
        node = ClusterNode(0, net, cluster_id=0, limits=TEST_LIMITS)
        node.assign_body(genesis)
        freed = node.unassign_body(genesis.block_hash)
        assert freed == genesis.body_size_bytes
        assert not node.store.has_body(genesis.block_hash)
        assert node.unassign_body(genesis.block_hash) == 0

    def test_round_reuse(self, net, genesis):
        node = ClusterNode(1, net, cluster_id=0, limits=TEST_LIMITS)
        round_a = node.round_for(genesis.header, (0, 1, 2), (0,))
        round_b = node.round_for(genesis.header, (0, 1, 2), (0,))
        assert round_a is round_b

    def test_finalize_tracking(self, net, genesis):
        node = ClusterNode(1, net, cluster_id=0, limits=TEST_LIMITS)
        assert not node.is_finalized(genesis.block_hash)
        node.finalize(genesis.block_hash)
        assert node.is_finalized(genesis.block_hash)


class TestLightNode:
    def test_header_sync_and_spv(self, net, ledger, chain_of_three):
        light = LightNode(9, net)
        for header in ledger.store.iter_active_headers():
            light.accept_header(header)
        block = chain_of_three[1]
        tx = block.transactions[1]
        proof = block.merkle_proof(1)
        assert light.verify_transaction(tx, block.block_hash, proof)
        assert tx.txid in light.verified_txids

    def test_spv_rejects_mismatched_leaf(self, net, ledger, chain_of_three):
        light = LightNode(9, net)
        for header in ledger.store.iter_active_headers():
            light.accept_header(header)
        block = chain_of_three[1]
        wrong_tx = chain_of_three[0].transactions[0]
        proof = block.merkle_proof(1)
        with pytest.raises(ValidationError):
            light.verify_transaction(wrong_tx, block.block_hash, proof)

    def test_spv_detects_wrong_root(self, net, ledger, chain_of_three):
        light = LightNode(9, net)
        for header in ledger.store.iter_active_headers():
            light.accept_header(header)
        block_a, block_b = chain_of_three[0], chain_of_three[1]
        tx = block_a.transactions[1]
        proof = block_a.merkle_proof(1)
        # Proof is valid for block_a but checked against block_b's header.
        assert not light.verify_transaction(tx, block_b.block_hash, proof)

    def test_storage_is_headers_only(self, net, ledger, chain_of_three):
        light = LightNode(9, net)
        for header in ledger.store.iter_active_headers():
            light.accept_header(header)
        assert light.storage_bytes == 84 * 4
