"""Cluster parity protection — the erasure-coding extension.

The paper stores ``r`` full replicas of every body inside a cluster;
``r = 1`` is the cheapest but a single crash loses the member's blocks
(E7).  This extension keeps ``r = 1`` and adds **one RS(k, k + 1)
single-parity chunk per group of k blocks**, stored on a member chosen
by rendezvous hashing over the group id.  The chunk is chunk ``k`` of
:func:`~repro.storage.erasure.rs_encode` over the k bodies, each
zero-padded to the longest, so any single lost body in a group is
decodable from the k−1 surviving bodies plus the parity chunk — storage
overhead ``D/k`` instead of a whole extra replica ``D``.

The manager is deliberately synchronous: groups seal when their k-th
block finalizes in a cluster, and recovery reads surviving bodies
straight from member stores while charging the read amplification to a
:class:`RecoveryReport` (k−1 body reads + 1 parity read per recovered
block) — the quantity the E11 ablation compares against replication.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.chain.block import Block, deserialize_body, serialize_body
from repro.crypto.hashing import Hash32
from repro.errors import StorageError
from repro.storage.erasure import rs_decode, rs_encode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment


@dataclass
class RecoveryReport:
    """Cost and outcome of reconstructing lost blocks from parity."""

    recovered: list[Hash32] = field(default_factory=list)
    unrecoverable: list[Hash32] = field(default_factory=list)
    bytes_read: int = 0
    parity_bytes_read: int = 0


def parity_chunk(bodies: Sequence[bytes]) -> bytes:
    """Chunk k of RS(k, k + 1) over ``bodies``, each padded to the longest.

    For one body the chunk equals that body: a single-block group's
    parity is a full copy.
    """
    width = max(map(len, bodies))
    data = b"".join(body.ljust(width, b"\0") for body in bodies)
    return rs_encode(data, len(bodies), len(bodies) + 1)[-1]


def recover_body(
    survivors: Mapping[int, bytes],
    parity: bytes,
    lengths: Sequence[int],
    lost: int,
) -> bytes:
    """Decode body ``lost`` of a group from the others plus its parity.

    ``survivors`` maps a group position to its body, ``lengths`` holds
    every body's length in group order.

    Raises:
        StorageError: when another body of the group is missing too, or
            a survivor's length is not the one the group sealed.
    """
    for index, body in survivors.items():
        if len(body) != lengths[index]:
            raise StorageError(
                f"body {index} has length {len(body)}, "
                f"expected {lengths[index]}"
            )
    k, width = len(lengths), len(parity)
    chunks = {i: body.ljust(width, b"\0") for i, body in survivors.items()}
    chunks[k] = parity
    data = rs_decode(chunks, k, k + 1, k * width)
    return data[lost * width : lost * width + lengths[lost]]


@dataclass
class _SealedGroup:
    member_ids: tuple[Hash32, ...]
    lengths: tuple[int, ...]
    parity: bytes
    parity_holder: int
    cluster_id: int


class ParityManager:
    """Per-cluster parity groups over finalized blocks.

    Groups are **striped like RAID-5**: a block may only join an open
    group whose existing members live on *different* holders, so a single
    member crash loses at most one chunk per group — exactly what one
    parity chunk can repair.  The parity chunk itself goes to a member
    holding none of the group's bodies (when the cluster is big enough).
    """

    def __init__(self, group_size: int) -> None:
        if group_size < 2:
            raise StorageError("parity group size must be >= 2")
        self.group_size = group_size
        # cluster -> open stripes, each (holders_used, blocks)
        self._open: dict[int, list[tuple[set[int], list[Block]]]] = {}
        self._sealed: dict[bytes, _SealedGroup] = {}
        self._group_of: dict[tuple[int, Hash32], bytes] = {}
        self._parity_bytes_by_node: dict[int, int] = {}

    # ------------------------------------------------------------ accrual
    def on_block_final(
        self, deployment: "ICIDeployment", cluster_id: int, block: Block
    ) -> None:
        """Feed a cluster-finalized block into a holder-disjoint stripe."""
        holders = set(
            deployment.holders_in_cluster(block.header, cluster_id)
        )
        stripes = self._open.setdefault(cluster_id, [])
        for used, blocks in stripes:
            if used & holders:
                continue
            used.update(holders)
            blocks.append(block)
            if len(blocks) == self.group_size:
                stripes.remove((used, blocks))
                self._seal(deployment, cluster_id, blocks)
            return
        stripes.append((set(holders), [block]))

    def flush(self, deployment: "ICIDeployment") -> int:
        """Seal every partial stripe now (smaller groups, same protection).

        Until a stripe seals its blocks are *unprotected* — call this at
        quiet points (or on a timer) so the unprotected tail stays short.
        A single-block stripe's parity is a full copy on another member
        (RS(1, 2)'s parity equals its data), which is still exactly
        single-crash protection.

        Returns the number of stripes sealed.
        """
        sealed = 0
        for cluster_id, stripes in self._open.items():
            ready = list(stripes)
            for stripe in ready:
                stripes.remove(stripe)
                self._seal(deployment, cluster_id, stripe[1])
                sealed += 1
        return sealed

    def _seal(
        self,
        deployment: "ICIDeployment",
        cluster_id: int,
        blocks: list[Block],
    ) -> None:
        bodies = [serialize_body(block) for block in blocks]
        member_ids = tuple(block.block_hash for block in blocks)
        # Group ids must be distinct across clusters even when two
        # clusters stripe the same blocks identically.
        group_id = hashlib.sha256(
            cluster_id.to_bytes(8, "big") + b"".join(member_ids)
        ).digest()
        holder = self._pick_parity_holder(
            deployment, cluster_id, blocks, group_id
        )
        parity = parity_chunk(bodies)
        self._sealed[group_id] = _SealedGroup(
            member_ids=member_ids,
            lengths=tuple(map(len, bodies)),
            parity=parity,
            parity_holder=holder,
            cluster_id=cluster_id,
        )
        for block in blocks:
            self._group_of[(cluster_id, block.block_hash)] = group_id
        self._parity_bytes_by_node[holder] = (
            self._parity_bytes_by_node.get(holder, 0) + len(parity)
        )

    def _pick_parity_holder(
        self,
        deployment: "ICIDeployment",
        cluster_id: int,
        blocks: list[Block],
        group_id: bytes,
    ) -> int:
        members = deployment.clusters.members_of(cluster_id)
        body_holders: set[int] = set()
        for block in blocks:
            body_holders.update(
                deployment.holders_in_cluster(block.header, cluster_id)
            )
        candidates = [m for m in members if m not in body_holders] or list(
            members
        )
        ranked = sorted(
            candidates,
            key=lambda m: hashlib.sha256(
                group_id + m.to_bytes(8, "big")
            ).digest(),
        )
        return ranked[0]

    # ----------------------------------------------------------- recovery
    def recover_block(
        self,
        deployment: "ICIDeployment",
        cluster_id: int,
        block_hash: Hash32,
        report: RecoveryReport,
    ) -> Block | None:
        """Reconstruct a lost body from group survivors + parity.

        Reads each surviving group member's body from any live in-cluster
        holder and decodes the lost one with the parity chunk.  Returns
        ``None`` (and records the loss) when a second body of the same
        group is also gone or the parity holder is offline.  Survivor
        reads are charged to the report even when the attempt then fails
        on the parity holder — the bytes really crossed the wire before
        the failure was known, same as the partial reads charged on a
        missing-survivor abort.
        """
        group_id = self._group_of.get((cluster_id, block_hash))
        if group_id is None:
            report.unrecoverable.append(block_hash)
            return None
        sealed = self._sealed[group_id]
        lost = sealed.member_ids.index(block_hash)
        surviving: dict[int, bytes] = {}
        members = deployment.clusters.members_of(cluster_id)
        for index, member_hash in enumerate(sealed.member_ids):
            if index == lost:
                continue
            body = self._read_body(deployment, members, member_hash)
            if body is None:
                report.unrecoverable.append(block_hash)
                return None
            surviving[index] = body
            report.bytes_read += len(body)
        if not deployment.network.is_online(sealed.parity_holder):
            report.unrecoverable.append(block_hash)
            return None
        report.parity_bytes_read += len(sealed.parity)
        raw = recover_body(surviving, sealed.parity, sealed.lengths, lost)
        header = deployment.ledger.store.header(block_hash)
        block = deserialize_body(header, raw)
        report.recovered.append(block_hash)
        return block

    @staticmethod
    def _read_body(
        deployment: "ICIDeployment",
        members: tuple[int, ...],
        block_hash: Hash32,
    ) -> bytes | None:
        for member in members:
            node = deployment.nodes.get(member)
            if (
                node is not None
                and deployment.network.is_online(member)
                and node.store.has_body(block_hash)
            ):
                return serialize_body(node.store.body(block_hash))
        return None

    # --------------------------------------------------------- accounting
    @property
    def total_parity_bytes(self) -> int:
        """Extra bytes the extension stores across the whole network."""
        return sum(self._parity_bytes_by_node.values())

    @property
    def sealed_groups(self) -> int:
        """Number of sealed parity groups."""
        return len(self._sealed)
