"""Merkle trees over transaction hashes, with inclusion proofs.

The tree follows the Bitcoin convention: leaves are 32-byte digests, an odd
level duplicates its last element, and inner nodes are
``sha256d(left || right)``.  Inclusion proofs are audit paths of
``(sibling_hash, sibling_is_right)`` pairs; SPV-style verification in the
light-node and collaborative-verification code paths uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import Hash32, ZERO_HASH, hash_concat
from repro.errors import MerkleError


@dataclass(frozen=True)
class MerkleProof:
    """An audit path proving a leaf's inclusion under a Merkle root.

    Attributes:
        leaf: The leaf digest being proven.
        index: The leaf's position in the original leaf sequence.
        path: Sibling digests from leaf level to just below the root, each
            paired with ``True`` when the sibling sits to the right.
    """

    leaf: Hash32
    index: int
    path: tuple[tuple[Hash32, bool], ...]

    @property
    def size_bytes(self) -> int:
        """Wire size of the proof: 32 bytes per sibling + 4-byte index."""
        return 32 * len(self.path) + 32 + 4

    def compute_root(self) -> Hash32:
        """Fold the audit path into the root this proof commits to."""
        current = self.leaf
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = hash_concat(current, sibling)
            else:
                current = hash_concat(sibling, current)
        return current

    def verify(self, root: Hash32) -> bool:
        """Return ``True`` when this proof is valid under ``root``."""
        return self.compute_root() == root


class MerkleTree:
    """A full Merkle tree built from a sequence of leaf digests.

    The tree keeps every level so proofs can be generated in O(log n)
    without recomputation.  An empty leaf set yields the conventional
    all-zero root (the genesis block has no transactions in some tests).
    """

    def __init__(self, leaves: Sequence[Hash32]) -> None:
        for leaf in leaves:
            if len(leaf) != 32:
                raise MerkleError("merkle leaves must be 32-byte digests")
        self._leaves: tuple[Hash32, ...] = tuple(leaves)
        self._levels: list[list[Hash32]] = self._build_levels(self._leaves)

    @staticmethod
    def _build_levels(leaves: tuple[Hash32, ...]) -> list[list[Hash32]]:
        if not leaves:
            return [[ZERO_HASH]]
        levels = [list(leaves)]
        while len(levels[-1]) > 1:
            current = levels[-1]
            next_level: list[Hash32] = []
            for i in range(0, len(current), 2):
                left = current[i]
                right = current[i + 1] if i + 1 < len(current) else current[i]
                next_level.append(hash_concat(left, right))
            levels.append(next_level)
        return levels

    @property
    def root(self) -> Hash32:
        """The Merkle root committing to all leaves."""
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``.

        Raises:
            MerkleError: if ``index`` is out of range or the tree is empty.
        """
        if not self._leaves:
            raise MerkleError("cannot prove inclusion in an empty tree")
        if not 0 <= index < len(self._leaves):
            raise MerkleError(
                f"leaf index {index} out of range [0, {len(self._leaves)})"
            )
        path: list[tuple[Hash32, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling_is_right = position % 2 == 0
            sibling_index = position + 1 if sibling_is_right else position - 1
            if sibling_index >= len(level):
                sibling_index = position  # odd level duplicates last node
            path.append((level[sibling_index], sibling_is_right))
            position //= 2
        return MerkleProof(
            leaf=self._leaves[index], index=index, path=tuple(path)
        )


def merkle_root(leaves: Sequence[Hash32]) -> Hash32:
    """Convenience: compute just the root of a leaf sequence."""
    return MerkleTree(leaves).root
