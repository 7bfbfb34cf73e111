"""Tests for UTXO snapshot serialization and bootstrap fast-sync."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction, TxOutput
from repro.chain.utxo import UtxoSet
from repro.errors import ValidationError


def populated_set(n: int = 10, seed: int = 0) -> UtxoSet:
    utxos = UtxoSet()
    for index in range(n):
        tx = Transaction(
            inputs=(),
            outputs=(
                TxOutput(
                    value=100 + index,
                    address=bytes([index % 250]) * 20,
                ),
            ),
            payload=f"{seed}-{index}".encode(),
        )
        utxos.apply_transaction(tx, height=index % 5)
    return utxos


class TestSnapshotRoundtrip:
    def test_roundtrip_preserves_everything(self):
        original = populated_set(12)
        restored = UtxoSet.deserialize_snapshot(
            original.serialize_snapshot()
        )
        assert len(restored) == len(original)
        assert restored.total_value == original.total_value
        assert restored.serialize_snapshot() == original.serialize_snapshot()

    def test_empty_set(self):
        restored = UtxoSet.deserialize_snapshot(
            UtxoSet().serialize_snapshot()
        )
        assert len(restored) == 0

    def test_deterministic_bytes(self):
        a = populated_set(8).serialize_snapshot()
        b = populated_set(8).serialize_snapshot()
        assert a == b

    def test_snapshot_bytes_property_matches(self):
        utxos = populated_set(9)
        # A 4-byte count, then 69 bytes per entry.
        assert len(utxos.serialize_snapshot()) == 4 + 69 * len(utxos)

    def test_truncated_rejected(self):
        raw = populated_set(3).serialize_snapshot()
        with pytest.raises(ValidationError, match="truncated"):
            UtxoSet.deserialize_snapshot(raw[:-2])

    def test_trailing_bytes_rejected(self):
        raw = populated_set(3).serialize_snapshot()
        with pytest.raises(ValidationError, match="trailing"):
            UtxoSet.deserialize_snapshot(raw + b"\x00")

    def test_restored_set_is_spendable(self, ledger, alice, bob):
        """A snapshot-restored set validates the same next block."""
        from tests.conftest import make_transfer_block
        from repro.chain.validation import check_block_stateful

        restored = UtxoSet.deserialize_snapshot(
            ledger.utxos.serialize_snapshot()
        )
        block = make_transfer_block(ledger, alice, bob, 500)
        check_block_stateful(block, restored)  # raises on failure

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 100))
    def test_roundtrip_property(self, n, seed):
        original = populated_set(n, seed=seed)
        restored = UtxoSet.deserialize_snapshot(
            original.serialize_snapshot()
        )
        assert restored.total_value == original.total_value
        assert len(restored) == len(original)


class TestBootstrapFastSync:
    def test_real_snapshot_transferred_and_decoded(self):
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment
        from repro.sim.runner import ScenarioRunner
        from tests.conftest import TEST_LIMITS

        deployment = ICIDeployment(
            12,
            config=ICIConfig(
                n_clusters=3,
                transfer_state_snapshot=True,
                limits=TEST_LIMITS,
            ),
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        runner.produce_blocks(5, txs_per_block=4)
        expected = len(deployment.ledger.utxos.serialize_snapshot())
        join = deployment.join_new_node()
        deployment.run()
        assert join.complete
        assert join.snapshot_bytes == expected
        assert join.snapshot_bytes > 0

    def test_flat_and_real_costs_compose(self):
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment
        from repro.sim.runner import ScenarioRunner
        from tests.conftest import TEST_LIMITS

        deployment = ICIDeployment(
            12,
            config=ICIConfig(
                n_clusters=3,
                transfer_state_snapshot=True,
                state_snapshot_bytes=1_000,
                limits=TEST_LIMITS,
            ),
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        runner.produce_blocks(3, txs_per_block=3)
        join = deployment.join_new_node()
        deployment.run()
        assert (
            join.snapshot_bytes
            == 1_000 + len(deployment.ledger.utxos.serialize_snapshot())
        )
