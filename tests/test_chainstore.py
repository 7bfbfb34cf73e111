"""Unit tests for the chain store and validating ledger (incl. reorgs)."""

from __future__ import annotations

import pytest

from repro.chain.block import build_block
from repro.chain.chainstore import ChainStore, Ledger
from repro.chain.transaction import make_coinbase
from repro.crypto.hashing import sha256
from repro.errors import ForkError, UnknownBlockError, ValidationError
from tests.conftest import TEST_LIMITS, make_transfer_block


class TestChainStoreHeaders:
    def test_add_and_lookup(self, genesis):
        store = ChainStore()
        assert store.add_header(genesis.header)
        assert store.has_header(genesis.block_hash)
        assert store.header(genesis.block_hash) == genesis.header

    def test_duplicate_add_returns_false(self, genesis):
        store = ChainStore()
        store.add_header(genesis.header)
        assert not store.add_header(genesis.header)
        assert store.header_count == 1

    def test_orphan_header_rejected(self, ledger, alice, bob):
        block = make_transfer_block(ledger, alice, bob, 10)
        store = ChainStore()
        with pytest.raises(ValidationError, match="parent"):
            store.add_header(block.header)

    def test_unknown_header_raises(self):
        with pytest.raises(UnknownBlockError):
            ChainStore().header(sha256(b"x"))

    def test_tip_tracks_highest(self, ledger, alice, bob, chain_of_three):
        store = ChainStore()
        for header in ledger.store.iter_active_headers():
            store.add_header(header)
        assert store.tip is not None
        assert store.tip.height == 3
        assert store.height == 3

    def test_empty_store_height(self):
        store = ChainStore()
        assert store.height == -1
        assert store.tip is None

    def test_iter_active_headers_in_order(self, ledger, chain_of_three):
        heights = [h.height for h in ledger.store.iter_active_headers()]
        assert heights == [0, 1, 2, 3]

    def test_iter_active_headers_is_fresh_each_call(
        self, ledger, chain_of_three
    ):
        store = ledger.store
        first = store.iter_active_headers()
        assert next(first).height == 0
        # A second call starts over, and a consumer mutating its own list
        # cannot reach the cached chain.
        taken = list(store.iter_active_headers())
        taken.clear()
        assert [h.height for h in store.iter_active_headers()] == [0, 1, 2, 3]
        assert [h.height for h in first] == [1, 2, 3]

    def test_iterator_keeps_its_snapshot_when_the_tip_moves(
        self, ledger, alice, bob, chain_of_three
    ):
        store = ledger.store
        in_flight = store.iter_active_headers()
        assert next(in_flight).height == 0
        ledger.accept_block(make_transfer_block(ledger, alice, bob, 5))
        assert [h.height for h in store.iter_active_headers()] == [
            0, 1, 2, 3, 4,
        ]
        assert [h.height for h in in_flight] == [1, 2, 3]

    def test_iter_active_headers_follows_an_overtaking_fork(
        self, ledger, alice, bob, chain_of_three
    ):
        """The cached chain is spliced at the fork point, not reused."""
        store = ledger.store
        main = list(store.iter_active_headers())
        side = Ledger(genesis=store.body(main[0].block_hash), limits=TEST_LIMITS)
        side.accept_block(store.body(main[1].block_hash))
        branch = []
        for amount in (7, 8, 9):
            block = make_transfer_block(side, alice, bob, amount)
            side.accept_block(block)
            branch.append(block.header)
        # Equal height: the first-seen tip stays, and so does its chain.
        store.add_header(branch[0])
        store.add_header(branch[1])
        assert list(store.iter_active_headers()) == main
        store.add_header(branch[2])
        assert list(store.iter_active_headers()) == main[:2] + branch
        assert store.tip is branch[2]
        # Both chains stay indexed, whichever won.
        for header in main + branch:
            assert store.header(header.block_hash) == header
        assert store.header_count == len(main) + len(branch)


class TestChainStoreBodies:
    def test_add_body_indexes_header(self, genesis):
        store = ChainStore()
        assert store.add_body(genesis)
        assert store.has_header(genesis.block_hash)
        assert store.has_body(genesis.block_hash)

    def test_drop_body_keeps_header(self, genesis):
        store = ChainStore()
        store.add_body(genesis)
        assert store.drop_body(genesis.block_hash)
        assert store.has_header(genesis.block_hash)
        assert not store.has_body(genesis.block_hash)
        assert not store.drop_body(genesis.block_hash)

    def test_body_lookup_raises_when_pruned(self, genesis):
        store = ChainStore()
        store.add_body(genesis)
        store.drop_body(genesis.block_hash)
        with pytest.raises(UnknownBlockError, match="not stored"):
            store.body(genesis.block_hash)

    def test_storage_accounting(self, genesis):
        store = ChainStore()
        store.add_body(genesis)
        assert store.header_bytes == 84
        assert store.body_bytes == genesis.body_size_bytes
        assert store.stored_bytes == 84 + genesis.body_size_bytes
        store.drop_body(genesis.block_hash)
        assert store.stored_bytes == 84

    def test_running_totals_equal_a_fresh_resum(
        self, ledger, chain_of_three
    ):
        """Interleaved add / drop / duplicate add / drop of an unheld body."""
        genesis = ledger.store.body(ledger.active_hash_at(0))
        one, two, three = chain_of_three
        store = ChainStore()

        def check():
            assert store.header_bytes == sum(
                header.size_bytes for header in store._headers.values()
            )
            assert store.body_bytes == sum(
                b.body_size_bytes for b in store.iter_bodies()
            )
            assert store.stored_bytes == store.header_bytes + store.body_bytes

        steps = [
            lambda: store.add_body(genesis),
            lambda: store.add_header(one.header),
            lambda: store.add_body(one),
            lambda: store.add_body(one),  # duplicate body
            lambda: store.add_header(one.header),  # duplicate header
            lambda: store.drop_body(genesis.block_hash),
            lambda: store.drop_body(genesis.block_hash),  # already gone
            lambda: store.add_body(two),
            lambda: store.drop_body(three.block_hash),  # never held
            lambda: store.add_body(genesis),  # re-add after drop
            lambda: store.add_body(three),
            lambda: store.drop_body(two.block_hash),
        ]
        for step in steps:
            step()
            check()
        assert store.header_count == 4
        assert store.body_count == 3


class TestLedger:
    def test_genesis_applied_on_init(self, ledger, alice):
        assert ledger.height == 0
        assert ledger.utxos.balance_of(alice.address) > 0

    def test_accept_chain(self, ledger, alice, bob, carol):
        b1 = make_transfer_block(ledger, alice, bob, 1_000)
        assert ledger.accept_block(b1)
        assert ledger.height == 1
        assert ledger.utxos.balance_of(bob.address) >= 1_000

    def test_duplicate_block_returns_false(self, ledger, alice, bob):
        b1 = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(b1)
        assert not ledger.accept_block(b1)

    def test_non_extending_block_raises_fork(self, ledger, alice, bob):
        b1 = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(b1)
        orphan = build_block(
            height=5,
            prev_hash=sha256(b"elsewhere"),
            transactions=[make_coinbase(1, alice.address, 5)],
            timestamp=99.0,
        )
        with pytest.raises(ForkError):
            ledger.accept_block(orphan)

    def test_undo_tip_restores_balances(self, ledger, alice, bob):
        before = ledger.utxos.balance_of(bob.address)
        b1 = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(b1)
        ledger.undo_tip()
        assert ledger.height == 0
        assert ledger.utxos.balance_of(bob.address) == before

    def test_cannot_undo_genesis(self, ledger):
        with pytest.raises(ForkError):
            ledger.undo_tip()

    def test_active_hash_at(self, ledger, chain_of_three):
        assert ledger.active_hash_at(2) == chain_of_three[1].block_hash
        with pytest.raises(UnknownBlockError):
            ledger.active_hash_at(9)


class TestReorg:
    def _fork_from_genesis(self, ledger, alice, bob, length: int):
        """Build a competing branch of ``length`` blocks off genesis."""
        side = Ledger(
            genesis=ledger.store.body(ledger.active_hash_at(0)),
            limits=TEST_LIMITS,
        )
        branch = []
        for i in range(length):
            block = make_transfer_block(side, alice, bob, 10 + i)
            side.accept_block(block)
            branch.append(block)
        return branch

    def test_longer_branch_wins(self, ledger, alice, bob):
        main = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(main)
        branch = self._fork_from_genesis(ledger, alice, bob, 2)
        disconnected = ledger.reorg_to(branch)
        assert disconnected == 1
        assert ledger.height == 2
        assert ledger.tip.block_hash == branch[-1].block_hash

    def test_active_headers_track_undo_and_reorg(self, ledger, alice, bob):
        """The store's cached chain is revalidated across Ledger reorgs."""
        store = ledger.store
        main = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(main)
        assert [h.block_hash for h in store.iter_active_headers()] == [
            ledger.active_hash_at(0), main.block_hash,
        ]
        branch = self._fork_from_genesis(ledger, alice, bob, 2)
        ledger.reorg_to(branch)
        assert [h.block_hash for h in store.iter_active_headers()] == [
            ledger.active_hash_at(0), *(b.block_hash for b in branch),
        ]
        # Undo disconnects the UTXO state only; headers (and so the
        # store's highest-header chain) stay.
        ledger.undo_tip()
        assert [h.height for h in store.iter_active_headers()] == [0, 1, 2]
        assert store.tip.block_hash == branch[-1].block_hash

    def test_equal_length_branch_rejected(self, ledger, alice, bob):
        main = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(main)
        branch = self._fork_from_genesis(ledger, alice, bob, 1)
        with pytest.raises(ForkError, match="longer"):
            ledger.reorg_to(branch)

    def test_detached_branch_rejected(self, ledger, alice, bob):
        stray = build_block(
            height=1,
            prev_hash=sha256(b"unknown"),
            transactions=[make_coinbase(1, alice.address, 1)],
            timestamp=1.0,
        )
        with pytest.raises(ForkError, match="attach"):
            ledger.reorg_to([stray])

    def test_empty_branch_rejected(self, ledger):
        with pytest.raises(ForkError, match="empty"):
            ledger.reorg_to([])

    def test_invalid_branch_restores_original_chain(
        self, ledger, alice, bob
    ):
        main = make_transfer_block(ledger, alice, bob, 1_000)
        ledger.accept_block(main)
        original_tip = ledger.tip.block_hash
        branch = self._fork_from_genesis(ledger, alice, bob, 2)
        # Corrupt the second branch block: coinbase overpays.
        bad_tail = build_block(
            height=branch[1].height,
            prev_hash=branch[1].header.prev_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward * 10,
                    alice.address,
                    branch[1].height,
                )
            ],
            timestamp=branch[1].header.timestamp,
        )
        with pytest.raises(ValidationError):
            ledger.reorg_to([branch[0], bad_tail])
        assert ledger.tip.block_hash == original_tip
        assert ledger.height == 1
