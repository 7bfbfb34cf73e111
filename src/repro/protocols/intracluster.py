"""Intra-cluster verification engine: prepare/commit/result voting.

Owns the PBFT-style collaborative verification rounds: holders attest
(PREPARE) after full validation, members commit after a holder majority,
a Byzantine quorum of commits finalizes the block inside the cluster —
optionally through a per-block aggregator that broadcasts a quorum
certificate (O(m) messages instead of O(m²)).  Finalizations are
published on the router's instrumentation hook, which is how the
metrics layer learns about them.
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader
from repro.consensus.quorum import Vote, byzantine_quorum
from repro.core.verification import (
    CommitVote,
    PrepareAttestation,
    QuorumCertificate,
)
from repro.crypto.hashing import Hash32
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.router import (
    FinalizeEvent,
    MessageRouter,
    ProtocolEngine,
)


class IntraClusterEngine(ProtocolEngine):
    """Collaborative verification voting and finalization."""

    name = "verification"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        # Votes that arrived before their block's header (replayed later).
        self.pending_votes: dict[
            tuple[int, Hash32],
            list[tuple[str, PrepareAttestation | CommitVote]],
        ] = {}
        self.collected_commits: dict[
            tuple[int, Hash32], list[CommitVote]
        ] = {}
        self.result_sent: set[tuple[int, Hash32]] = set()

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.VERIFY_PREPARE, self._on_prepare, owner=self.name
        )
        router.register(
            MessageKind.VERIFY_COMMIT, self._on_commit, owner=self.name
        )
        router.register(
            MessageKind.VERIFY_RESULT, self._on_result, owner=self.name
        )

    # ------------------------------------------------------------ messages
    def _silent(self, node: BaseNode) -> bool:
        """A silent Byzantine node withholds all verification traffic."""
        return self.deployment.byzantine.get(node.node_id) == "silent"

    def _on_prepare(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        if self._silent(node):
            return
        self.apply_prepare(node, message.payload)

    def _on_commit(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        if self._silent(node):
            return
        self.apply_commit(node, message.payload)

    def _on_result(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        if self._silent(node):
            return
        self.apply_result(node, message.payload)

    # ----------------------------------------------------- round plumbing
    def ensure_round(self, node: ClusterNode, header: BlockHeader):
        """The node's (possibly new) verification round for a block."""
        deployment = self.deployment
        round_ = node.rounds.get(header.block_hash)
        if round_ is None:  # three calls in four find it: rank holders once
            members = deployment.clusters.members_of(node.cluster_id)
            holders = deployment.holders_in_cluster(header, node.cluster_id)
            round_ = node.round_for(header, members, holders)
        if (
            self.network.faults is not None
            and deployment.config.verify_collaboratively
            and not node.is_finalized(header.block_hash)
        ):
            self._watch_finality(node, header.block_hash)
        return round_

    # -------------------------------------------- fault-recovery probes
    def _watch_finality(self, node: ClusterNode, block_hash: Hash32) -> None:
        """Under faults, watch a member's round until it finalizes.

        One watch per (member, block): each firing re-kicks the round if
        it is still stuck (dropped prepare/commit/result).  Never started
        on clean networks, so fault-free event sequences are untouched.
        """
        tracker = self.deployment.reliability
        node_id = node.node_id
        key = (node_id, block_hash)
        if key in tracker.watching:
            return  # ensure_round asks again on every vote: skip the lambdas
        tracker.watch(
            "verify_result",
            waiting=lambda: self._awaiting_finality(node_id, block_hash),
            kick=lambda attempt: self._rekick(node_id, block_hash),
            key=key,
        )

    def _awaiting_finality(self, node_id: int, block_hash: Hash32) -> bool:
        node = self.deployment.nodes.get(node_id)
        return not (
            self.network.faults is None
            or node is None
            or node.is_finalized(block_hash)
            or self.deployment.byzantine.get(node_id) == "silent"
        )

    def _rekick(self, node_id: int, block_hash: Hash32) -> None:
        node = self.deployment.nodes[node_id]
        live = self.network.faults.is_live(node_id)
        if live and node.store.has_header(block_hash):
            self._nudge(node, node.store.header(block_hash))

    def _nudge(self, node: ClusterNode, header: BlockHeader) -> None:
        """Re-kick one stuck round; every path is duplicate-safe."""
        deployment = self.deployment
        block_hash = header.block_hash
        # A decided aggregator replays its certificate to the straggler.
        if deployment.config.aggregate_votes:
            aggregator = deployment.aggregator_for(header, node.cluster_id)
            agg_node = deployment.nodes.get(aggregator)
            if (
                agg_node is not None
                and aggregator != node.node_id
                and (aggregator, block_hash) in self.result_sent
            ):
                self.router.note_retry("verify_result")
                self._resend_result(agg_node, header, node.node_id)
                return
        round_ = self.ensure_round(node, header)
        # Our commit may have been dropped en route: re-dispatch it
        # (receivers' tallies dedupe by member).
        if round_.sent_commit and not round_.decided:
            commit = CommitVote.create(
                node.keypair, block_hash, node.node_id, round_.my_commit_vote
            )
            self.router.note_retry("verify_commit")
            self._dispatch_commit(node, header, commit)
            return
        # Still awaiting prepares: a holder re-broadcasts its attestation
        # (receivers keep the first verdict per holder).
        holders = deployment.holders_in_cluster(header, node.cluster_id)
        if node.node_id in holders and node.store.has_body(block_hash):
            vote = (
                Vote.ACCEPT
                if deployment.dissemination.block_valid.get(block_hash, False)
                else Vote.REJECT
            )
            if deployment.byzantine.get(node.node_id) == "vote_reject":
                vote = Vote.REJECT
            self.router.note_retry("verify_prepare")
            self._broadcast_prepare(node, block_hash, vote)

    def _resend_result(
        self, aggregator: ClusterNode, header: BlockHeader, member: int
    ) -> None:
        """Directed replay of an already-broadcast quorum certificate."""
        block_hash = header.block_hash
        verdict = (
            Vote.REJECT
            if block_hash in self.metrics.blocks_rejected
            else Vote.ACCEPT
        )
        matching = tuple(
            c
            for c in self.collected_commits.get(
                (aggregator.node_id, block_hash), []
            )
            if c.vote == verdict
        )
        certificate = QuorumCertificate(
            block_hash=block_hash, vote=verdict, commits=matching
        )
        aggregator.send(
            MessageKind.VERIFY_RESULT,
            member,
            certificate,
            certificate.wire_bytes,
        )

    def replay_pending(self, node: ClusterNode, block_hash: Hash32) -> None:
        """Re-apply votes that raced ahead of the block's header."""
        pending = self.pending_votes.pop((node.node_id, block_hash), [])
        for tag, payload in pending:
            if tag == "prepare":
                self.apply_prepare(node, payload)  # type: ignore[arg-type]
            else:
                self.apply_commit(node, payload)  # type: ignore[arg-type]

    # --------------------------------------------------- validation entry
    def start_verification(self, node: ClusterNode, block: Block) -> None:
        """Charge validation cost, then vote per the configured mode."""
        deployment = self.deployment
        block_hash = block.block_hash
        cost = self.metrics.costs.charge_full_validation(block)
        vote = (
            Vote.ACCEPT
            if deployment.dissemination.block_valid.get(block_hash, False)
            else Vote.REJECT
        )
        behaviour = deployment.byzantine.get(node.node_id)
        if behaviour == "vote_reject":
            vote = Vote.REJECT  # lie about a valid block
        elif behaviour == "silent":
            return  # withhold the attestation entirely
        if deployment.config.verify_collaboratively:
            self.network.clock.schedule(
                cost,
                lambda: self._broadcast_prepare(node, block_hash, vote),
            )
        else:
            self.network.clock.schedule(
                cost,
                lambda: self._self_commit(node, block.header, vote),
            )

    def _broadcast_prepare(
        self, node: ClusterNode, block_hash: Hash32, vote: Vote
    ) -> None:
        attestation = PrepareAttestation.create(
            node.keypair, block_hash, node.node_id, vote
        )
        for member in self.deployment.clusters.members_of(node.cluster_id):
            if member == node.node_id:
                self.apply_prepare(node, attestation)
            else:
                node.send(
                    MessageKind.VERIFY_PREPARE,
                    member,
                    attestation,
                    PrepareAttestation.WIRE_BYTES,
                )

    def _self_commit(
        self, node: ClusterNode, header: BlockHeader, vote: Vote
    ) -> None:
        """Non-collaborative ablation: commit straight after own validation."""
        commit = CommitVote.create(
            node.keypair, header.block_hash, node.node_id, vote
        )
        self._dispatch_commit(node, header, commit)

    # ------------------------------------------------- verification voting
    def apply_prepare(
        self, node: ClusterNode, attestation: PrepareAttestation
    ) -> None:
        """Fold one holder attestation into the node's round."""
        deployment = self.deployment
        block_hash = attestation.block_hash
        if not node.store.has_header(block_hash):
            self.pending_votes.setdefault(
                (node.node_id, block_hash), []
            ).append(("prepare", attestation))
            return
        key = deployment.public_keys.get(attestation.holder)
        if key is None or not attestation.check(key):
            return
        header = node.store.header(block_hash)
        round_ = self.ensure_round(node, header)
        if round_.on_prepare(attestation.holder, attestation.vote):
            behaviour = deployment.byzantine.get(node.node_id)
            if behaviour == "silent":
                return
            vote = round_.my_commit_vote
            if behaviour == "vote_reject":
                vote = Vote.REJECT
            commit = CommitVote.create(
                node.keypair, block_hash, node.node_id, vote
            )
            self._dispatch_commit(node, header, commit)

    def _dispatch_commit(
        self, node: ClusterNode, header: BlockHeader, commit: CommitVote
    ) -> None:
        deployment = self.deployment
        if deployment.config.aggregate_votes:
            aggregator = deployment.aggregator_for(header, node.cluster_id)
            if aggregator == node.node_id:
                self.apply_commit(node, commit)
            else:
                node.send(
                    MessageKind.VERIFY_COMMIT,
                    aggregator,
                    commit,
                    CommitVote.WIRE_BYTES,
                )
        else:
            for member in deployment.clusters.members_of(node.cluster_id):
                if member == node.node_id:
                    self.apply_commit(node, commit)
                else:
                    node.send(
                        MessageKind.VERIFY_COMMIT,
                        member,
                        commit,
                        CommitVote.WIRE_BYTES,
                    )

    def apply_commit(self, node: ClusterNode, commit: CommitVote) -> None:
        """Fold one member commit; finalize on a Byzantine quorum."""
        deployment = self.deployment
        block_hash = commit.block_hash
        if not node.store.has_header(block_hash):
            self.pending_votes.setdefault(
                (node.node_id, block_hash), []
            ).append(("commit", commit))
            return
        key = deployment.public_keys.get(commit.member)
        if key is None or not commit.check(key):
            return
        header = node.store.header(block_hash)
        round_ = self.ensure_round(node, header)
        commits = self.collected_commits.setdefault(
            (node.node_id, block_hash), []
        )
        # One entry per member: retried/duplicated commits must not
        # inflate the quorum certificate.
        if all(existing.member != commit.member for existing in commits):
            commits.append(commit)
        decided = round_.on_commit(
            commit.member, commit.vote, now=self.network.now
        )
        if not decided:
            return
        verdict = Vote.ACCEPT if round_.accepted else Vote.REJECT
        if deployment.config.aggregate_votes:
            self._broadcast_result(node, header, verdict)
        self.finalize(node, block_hash, round_.accepted)

    def _broadcast_result(
        self, node: ClusterNode, header: BlockHeader, verdict: Vote
    ) -> None:
        block_hash = header.block_hash
        if (node.node_id, block_hash) in self.result_sent:
            return
        self.result_sent.add((node.node_id, block_hash))
        matching = tuple(
            c
            for c in self.collected_commits.get(
                (node.node_id, block_hash), []
            )
            if c.vote == verdict
        )
        certificate = QuorumCertificate(
            block_hash=block_hash, vote=verdict, commits=matching
        )
        for member in self.deployment.clusters.members_of(node.cluster_id):
            if member != node.node_id:
                node.send(
                    MessageKind.VERIFY_RESULT,
                    member,
                    certificate,
                    certificate.wire_bytes,
                )

    def apply_result(
        self, node: ClusterNode, certificate: QuorumCertificate
    ) -> None:
        """Adopt an aggregator's quorum certificate (after checking it)."""
        deployment = self.deployment
        block_hash = certificate.block_hash
        if node.is_finalized(block_hash):
            return
        members = deployment.clusters.members_of(node.cluster_id)
        quorum = byzantine_quorum(len(members))
        if not certificate.check(deployment.public_keys, quorum):
            return
        self.finalize(node, block_hash, certificate.vote is Vote.ACCEPT)

    # --------------------------------------------------------- finalization
    def finalize(
        self, node: ClusterNode, block_hash: Hash32, accepted: bool
    ) -> None:
        """One node reaches intra-cluster finality on a block."""
        deployment = self.deployment
        if node.is_finalized(block_hash):
            return
        node.finalize(block_hash)
        now = self.network.now
        first_in_cluster = (
            block_hash,
            node.cluster_id,
        ) not in self.metrics.cluster_finalized_at
        self.router.notify_finalize(
            FinalizeEvent(
                block_hash=block_hash,
                node_id=node.node_id,
                cluster_id=node.cluster_id,
                accepted=accepted,
                at=now,
            )
        )
        ledger = deployment.ledger
        if (
            first_in_cluster
            and accepted
            and deployment.parity is not None
            and ledger.store.has_body(block_hash)
        ):
            deployment.parity.on_block_final(
                deployment, node.cluster_id, ledger.store.body(block_hash)
            )
        if not accepted:
            self.metrics.blocks_rejected.add(block_hash)
            node.store.drop_body(block_hash)
            return
        if node.mempool is not None and ledger.store.has_body(block_hash):
            node.mempool.remove_confirmed(
                list(ledger.store.body(block_hash).transactions)
            )
        if deployment.config.prune_after_verify and not node.is_holder_of(
            block_hash
        ):
            node.store.drop_body(block_hash)
