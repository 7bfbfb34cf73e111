"""Shared fixtures: wallets, blocks, small ledgers and deployments."""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block, build_block
from repro.chain.chainstore import Ledger
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_signed_transfer
from repro.chain.validation import ValidationLimits
from repro.clustering.coordinates import Coordinate
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.net import topology as topology_module
from repro.storage import heat

#: Small consensus limits so unit tests stay fast.
TEST_LIMITS = ValidationLimits(
    max_block_body_bytes=50_000, max_tx_bytes=10_000
)



def place_uniform(
    n_nodes: int, extent: float = 100.0, seed: int = 0
) -> list[Coordinate]:
    """Scatter ``n_nodes`` uniformly over an ``extent`` × ``extent`` square:
    structureless coordinates for the clustering and Vivaldi tests."""
    if n_nodes < 0:
        raise ConfigurationError("n_nodes must be non-negative")
    rng = random.Random(seed)
    return [
        (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
        for _ in range(n_nodes)
    ]

def ring(node_ids) -> dict[int, tuple[int, ...]]:
    """A bidirectional ring: the worst-case-diameter topology the gossip
    tests flood (``tests/test_topology.py::TestRing`` pins its shape)."""
    ids = list(node_ids)
    if len(ids) < 2:
        return {node: () for node in ids}
    topology: dict[int, tuple[int, ...]] = {}
    for index, node in enumerate(ids):
        left = ids[(index - 1) % len(ids)]
        right = ids[(index + 1) % len(ids)]
        topology[node] = (left, right) if left != right else (left,)
    return topology


def eager_clustered_topology(
    clusters, seed: int = 0
) -> dict[int, tuple[int, ...]]:
    """The oracle for :func:`repro.net.topology.clustered_topology`: the
    same overlay built at once as a dict (set arithmetic for the meshes,
    then ``INTER_CLUSTER_LINKS`` bridges per cluster pair drawn from the
    member tuples)."""
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {}
    for members in clusters:
        mesh = set(members)
        for node in members:
            adjacency.setdefault(node, set()).update(mesh)
    for node, peers in adjacency.items():
        peers.discard(node)
    for i, cluster_a in enumerate(clusters):
        if not cluster_a:
            continue
        for cluster_b in clusters[i + 1 :]:
            if not cluster_b:
                continue
            for _ in range(topology_module.INTER_CLUSTER_LINKS):
                a = rng.choice(cluster_a)
                b = rng.choice(cluster_b)
                adjacency[a].add(b)
                adjacency[b].add(a)
    return {node: tuple(sorted(peers)) for node, peers in adjacency.items()}


def queued(clock) -> int:
    """Entries still queued on ``clock``, cancelled ones excepted (a run
    is one): heap entries whose callback slot is not ``None``."""
    return sum(1 for entry in clock._heap if entry[2] is not None)


def per_byte_xor(chunks) -> bytes:
    """The oracle for :func:`repro.crypto.hashing.xor_bytes`: the same
    fold, one byte at a time, with the same two ``ValueError``s."""
    result: bytearray | None = None
    for chunk in chunks:
        raw = bytes(chunk)
        if result is None:
            result = bytearray(raw)
        else:
            if len(raw) != len(result):
                raise ValueError(
                    f"xor_bytes requires equal lengths, got {len(result)} and {len(raw)}"
                )
            for i, byte in enumerate(raw):
                result[i] ^= byte
    if result is None:
        raise ValueError("xor_bytes requires at least one chunk")
    return bytes(result)


def remove_confirmed_reference(pool, txs) -> int:
    """The oracle for :meth:`repro.chain.mempool.Mempool.remove_confirmed`:
    the full walk with no empty-pool return — drop each confirmed txid,
    then every pooled transaction spending an outpoint they spent."""
    removed = 0
    confirmed_spends = set()
    for tx in txs:
        if pool.remove(tx.txid):
            removed += 1
        confirmed_spends.update(tx.outpoints_spent())
    conflicted = [
        txid
        for outpoint, txid in pool._spent_outpoints.items()
        if outpoint in confirmed_spends
    ]
    for txid in conflicted:
        if pool.remove(txid):
            removed += 1
    return removed


@pytest.fixture
def small_heat(monkeypatch):
    """Widen the tier slices for six-block deployments: with the default
    quantiles a handful of blocks would get zero hot slots."""
    monkeypatch.setattr(heat, "HOT_QUANTILE", 0.8)
    monkeypatch.setattr(heat, "COLD_QUANTILE", 0.5)


@pytest.fixture
def alice() -> KeyPair:
    return KeyPair.from_seed(0)


@pytest.fixture
def bob() -> KeyPair:
    return KeyPair.from_seed(1)


@pytest.fixture
def carol() -> KeyPair:
    return KeyPair.from_seed(2)


@pytest.fixture
def genesis(alice: KeyPair) -> Block:
    """Genesis paying the whole supply to alice."""
    return make_genesis([alice.address])


@pytest.fixture
def ledger(genesis: Block) -> Ledger:
    return Ledger(genesis=genesis, limits=TEST_LIMITS)


def make_transfer_block(
    ledger: Ledger,
    sender: KeyPair,
    recipient: KeyPair,
    amount: int,
    miner: KeyPair | None = None,
) -> Block:
    """Seal a valid next block containing one transfer."""
    spendable = ledger.utxos.outpoints_of(sender.address)
    tx = make_signed_transfer(
        sender=sender,
        spendable=spendable,
        recipient_address=recipient.address,
        amount=amount,
    )
    miner = miner or sender
    from repro.chain.transaction import make_coinbase

    height = ledger.height + 1
    coinbase = make_coinbase(
        reward=TEST_LIMITS.block_reward,
        miner_address=miner.address,
        height=height,
    )
    tip = ledger.tip
    assert tip is not None
    return build_block(
        height=height,
        prev_hash=tip.block_hash,
        transactions=[coinbase, tx],
        timestamp=tip.timestamp + 1.0,
    )


@pytest.fixture
def chain_of_three(
    ledger: Ledger, alice: KeyPair, bob: KeyPair, carol: KeyPair
) -> list[Block]:
    """Three applied blocks on top of genesis (alice→bob→carol payments)."""
    blocks = []
    block1 = make_transfer_block(ledger, alice, bob, 1_000)
    ledger.accept_block(block1)
    blocks.append(block1)
    block2 = make_transfer_block(ledger, bob, carol, 400)
    ledger.accept_block(block2)
    blocks.append(block2)
    block3 = make_transfer_block(ledger, alice, carol, 2_000)
    ledger.accept_block(block3)
    blocks.append(block3)
    return blocks
