"""Unit + property tests for Merkle trees and inclusion proofs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import ZERO_HASH, hash_concat, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.errors import MerkleError


def leaves(n: int) -> list[bytes]:
    return [sha256(f"leaf-{i}".encode()) for i in range(n)]


class TestTreeConstruction:
    def test_empty_tree_root_is_zero(self):
        assert MerkleTree([]).root == ZERO_HASH

    def test_single_leaf_root_is_leaf(self):
        leaf = sha256(b"only")
        assert MerkleTree([leaf]).root == leaf

    def test_two_leaves_root(self):
        a, b = leaves(2)
        assert MerkleTree([a, b]).root == hash_concat(a, b)

    def test_odd_level_duplicates_last(self):
        a, b, c = leaves(3)
        expected = hash_concat(hash_concat(a, b), hash_concat(c, c))
        assert MerkleTree([a, b, c]).root == expected

    def test_rejects_non_digest_leaves(self):
        with pytest.raises(MerkleError):
            MerkleTree([b"too short"])

    def test_merkle_root_helper_matches_tree(self):
        sample = leaves(5)
        assert merkle_root(sample) == MerkleTree(sample).root

    def test_order_sensitivity(self):
        sample = leaves(4)
        assert MerkleTree(sample).root != MerkleTree(sample[::-1]).root


class TestProofs:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13, 33])
    def test_every_leaf_proves(self, size):
        sample = leaves(size)
        tree = MerkleTree(sample)
        for index in range(size):
            proof = tree.proof(index)
            assert proof.verify(tree.root)
            assert proof.leaf == sample[index]

    def test_proof_rejects_wrong_root(self):
        tree = MerkleTree(leaves(6))
        assert not tree.proof(2).verify(sha256(b"bogus"))

    def test_proof_rejects_tampered_leaf(self):
        tree = MerkleTree(leaves(6))
        proof = tree.proof(2)
        forged = MerkleProof(
            leaf=sha256(b"forged"), index=proof.index, path=proof.path
        )
        assert not forged.verify(tree.root)

    def test_out_of_range_index_raises(self):
        tree = MerkleTree(leaves(4))
        with pytest.raises(MerkleError):
            tree.proof(4)
        with pytest.raises(MerkleError):
            tree.proof(-1)

    def test_empty_tree_proof_raises(self):
        with pytest.raises(MerkleError):
            MerkleTree([]).proof(0)

    def test_proof_size_is_logarithmic(self):
        tree = MerkleTree(leaves(64))
        proof = tree.proof(0)
        assert len(proof.path) == 6  # log2(64)
        assert proof.size_bytes == 32 * 6 + 32 + 4

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_proof_roundtrip_property(self, size, data):
        sample = leaves(size)
        tree = MerkleTree(sample)
        index = data.draw(st.integers(0, size - 1))
        assert tree.proof(index).verify(tree.root)

    @given(st.integers(min_value=2, max_value=24), st.data())
    def test_cross_leaf_proofs_do_not_transfer(self, size, data):
        """A proof for leaf i must not verify with leaf j's digest."""
        sample = leaves(size)
        tree = MerkleTree(sample)
        i = data.draw(st.integers(0, size - 1))
        j = data.draw(
            st.integers(0, size - 1).filter(lambda value: value != i)
        )
        proof = tree.proof(i)
        forged = MerkleProof(leaf=sample[j], index=i, path=proof.path)
        assert not forged.verify(tree.root)
