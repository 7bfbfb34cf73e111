"""The body-transfer service accepts only bytes it has checked.

A tampering holder serves a body with one transaction altered and the
header unchanged (so the block hash still matches).  The accept step
must refuse it on every flow that fetches bodies — a read, an
anti-entropy pull and a join batch — so that no honest store ever
holds it, and the read must complete from the next holder with the
right bytes.
"""

from __future__ import annotations

import dataclasses

from repro.chain.block import Block
from repro.chain.transaction import make_coinbase
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.crypto.keys import KeyPair
from repro.sim.faults import FaultInjector
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def deployed(n_nodes=12, replication=2, faults=False):
    deployment = ICIDeployment(
        n_nodes,
        config=ICIConfig(
            n_clusters=3, replication=replication, limits=TEST_LIMITS
        ),
    )
    if faults:
        # Zero rates: lossless, but a read may re-adopt a lost body.
        FaultInjector.install(deployment.network)
    ScenarioRunner(deployment, limits=TEST_LIMITS).produce_blocks(
        4, txs_per_block=2
    )
    return deployment


def tampered(block: Block) -> Block:
    """``block`` with its coinbase paid elsewhere, header untouched."""
    forged = make_coinbase(
        reward=block.transactions[0].outputs[0].value,
        miner_address=KeyPair.from_seed(99).address,
        height=block.height,
    )
    return dataclasses.replace(
        block, transactions=(forged, *block.transactions[1:])
    )


def plant(deployment, holder: int, block: Block) -> Block:
    """Make ``holder`` a tamperer for ``block``; returns the forgery."""
    forged = tampered(block)
    assert forged.block_hash == block.block_hash
    assert not forged.verify_merkle_commitment()
    store = deployment.nodes[holder].store
    store.drop_body(block.block_hash)
    store.add_body(forged)
    return forged


def honest_stores_hold_no_forgery(deployment, forger: int, forged: Block):
    for node_id, node in deployment.nodes.items():
        if node_id != forger and node.store.has_body(forged.block_hash):
            assert node.store.body(forged.block_hash).verify_merkle_commitment()


def a_block(deployment) -> Block:
    header = deployment.ledger.store.header(
        deployment.ledger.active_hash_at(2)
    )
    return deployment.ledger.store.body(header.block_hash)


def test_a_read_skips_a_tampered_body_and_completes_from_the_next_holder():
    deployment = deployed(faults=True)
    block = a_block(deployment)
    cluster = deployment.nodes[0].cluster_id
    first, second = deployment.holders_in_cluster(block.header, cluster)
    # The second holder lost its copy; its read plan tries the first
    # holder, a tamperer, and then a non-holder that still has a copy.
    forged = plant(deployment, first, block)
    deployment.nodes[second].store.drop_body(block.block_hash)
    spare = next(
        m
        for m in deployment.clusters.members_of(cluster)
        if m not in (first, second)
    )
    deployment.nodes[spare].store.add_body(block)
    plan = deployment.query._plan_holders(
        deployment.nodes[second], block.header, second
    )
    assert plan[0] == first and spare in plan
    record = deployment.retrieve_block(second, block.block_hash)
    deployment.run()
    assert record.completed_at is not None and not record.degraded
    assert record.attempts == 2  # the forgery counted as a miss
    # The read re-adopted the body the assigned holder had lost: the
    # honest one, byte for byte.
    assert deployment.nodes[second].store.body(block.block_hash) is block
    honest_stores_hold_no_forgery(deployment, first, forged)


def test_an_anti_entropy_pull_skips_a_tampered_body():
    deployment = deployed(replication=3, faults=True)
    block = a_block(deployment)
    cluster = deployment.nodes[0].cluster_id
    holders = sorted(deployment.holders_in_cluster(block.header, cluster))
    # The pull's plan is the live holders in id order: the tamperer
    # answers first, the other holder second.
    lost, forger = holders[2], holders[0]
    deployment.nodes[lost].store.drop_body(block.block_hash)
    forged = plant(deployment, forger, block)
    deployment.repair.start(cadence=2.0)
    deployment.run_for(10.0)
    deployment.repair.stop()
    deployment.run()
    assert deployment.nodes[lost].store.body(block.block_hash) is block
    honest_stores_hold_no_forgery(deployment, forger, forged)


def test_a_join_batch_refuses_a_tampered_body():
    deployment = deployed()
    # Every member of the joiner's cluster serves forgeries of every
    # body it holds.
    cluster = deployment.clusters.smallest_cluster()
    forged = set()
    for member in deployment.clusters.members_of(cluster):
        store = deployment.nodes[member].store
        for body in list(store.iter_bodies()):
            if not body.header.is_genesis:
                plant(deployment, member, body)
                forged.add(body.block_hash)
    join = deployment.join_new_node()
    deployment.run()
    joiner = deployment.nodes[join.node_id]
    # Each refused body counts as a miss: the join completes without it.
    assert join.complete
    assert join.bodies_unavailable
    assert set(join.bodies_unavailable) <= forged
    assert not any(
        joiner.store.has_body(block_hash)
        for block_hash in join.bodies_unavailable
    )
    assert all(
        body.verify_merkle_commitment() for body in joiner.store.iter_bodies()
    )
