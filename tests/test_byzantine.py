"""Byzantine fault-injection tests for intra-cluster verification.

One cluster of 7 (quorum ⌊14/3⌋+1 = 5, tolerating f = 2 liars) with
replication 3 (holder-prepare majority 2 of 3), so both vote layers'
thresholds are exercised.
"""

from __future__ import annotations


from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def one_cluster(n_nodes=7, replication=3, **kwargs):
    kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(
        n_nodes,
        config=ICIConfig(
            n_clusters=1, replication=replication, **kwargs
        ),
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    return deployment, runner


def honest_members(deployment):
    return [
        node_id
        for node_id in deployment.nodes
        if node_id not in deployment.byzantine
    ]


class TestLyingMembers:
    def test_f_liars_cannot_block_finality(self):
        """2 of 7 members lying REJECT: valid blocks still accepted."""
        deployment, runner = one_cluster()
        deployment.byzantine = {5: "vote_reject", 6: "vote_reject"}
        report = runner.produce_blocks(3, txs_per_block=2)
        for block_hash in report.block_hashes:
            assert block_hash not in deployment.metrics.blocks_rejected
            for node_id in honest_members(deployment):
                assert deployment.nodes[node_id].is_finalized(block_hash)

    def test_beyond_f_liars_can_block_acceptance(self):
        """3 of 7 lying REJECT: the accept quorum (5) becomes impossible."""
        deployment, runner = one_cluster()
        deployment.byzantine = {
            4: "vote_reject",
            5: "vote_reject",
            6: "vote_reject",
        }
        report = runner.produce_blocks(1, txs_per_block=2)
        # 4 honest accepts < quorum 5: the cluster rejects (safe failure —
        # a valid block is refused, never an invalid one accepted).
        assert report.block_hashes[0] in deployment.metrics.blocks_rejected

    def test_lying_holder_majority_outvoted(self):
        """1 lying holder of 3: prepare majority (2 honest) prevails."""
        deployment, runner = one_cluster()
        # Make exactly one node byzantine; with r=3 it can be a holder of
        # some blocks, where the other two holders out-prepare it.
        deployment.byzantine = {6: "vote_reject"}
        report = runner.produce_blocks(4, txs_per_block=2)
        assert not deployment.metrics.blocks_rejected

    def test_sole_lying_holder_poisons_r1(self):
        """With r=1 a block whose only holder lies gets rejected —
        the verification-side argument for r > 1."""
        deployment, runner = one_cluster(replication=1)
        liar = 3
        deployment.byzantine = {liar: "vote_reject"}
        report = runner.produce_blocks(6, txs_per_block=2)
        poisoned = [
            block_hash
            for block_hash in report.block_hashes
            if deployment.holders_in_cluster(
                deployment.ledger.store.header(block_hash), 0
            )
            == (liar,)
        ]
        for block_hash in poisoned:
            assert block_hash in deployment.metrics.blocks_rejected
        for block_hash in set(report.block_hashes) - set(poisoned):
            assert block_hash not in deployment.metrics.blocks_rejected


class TestSilentMembers:
    def test_silent_minority_tolerated_in_broadcast_mode(self):
        deployment, runner = one_cluster(aggregate_votes=False)
        deployment.byzantine = {5: "silent", 6: "silent"}
        report = runner.produce_blocks(3, txs_per_block=2)
        for block_hash in report.block_hashes:
            finalized = sum(
                deployment.nodes[node_id].is_finalized(block_hash)
                for node_id in honest_members(deployment)
            )
            assert finalized == 5

    def test_silent_aggregator_stalls_its_blocks(self):
        """Known limitation: a silent aggregator (primary holder) stalls
        finalization of the blocks it aggregates — the protocol needs a
        view change for liveness, which is out of the paper's scope."""
        deployment, runner = one_cluster(aggregate_votes=True)
        silent = 2
        deployment.byzantine = {silent: "silent"}
        report = runner.produce_blocks(5, txs_per_block=2)
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            aggregator = deployment.aggregator_for(header, 0)
            finalized = sum(
                deployment.nodes[n].is_finalized(block_hash)
                for n in honest_members(deployment)
            )
            if aggregator == silent:
                assert finalized < 6
            else:
                assert finalized == 6


class TestForgedCertificates:
    def test_incomplete_certificate_rejected_by_members(self):
        """A certificate lacking quorum signatures does not finalize."""
        from repro.consensus.quorum import Vote
        from repro.consensus.votes import CommitVote, QuorumCertificate
        from repro.crypto.keys import KeyPair

        deployment, runner = one_cluster()
        report = runner.produce_blocks(1, txs_per_block=2)
        block_hash = report.block_hashes[0]

        # Forge a 2-signature certificate for a *different* verdict.
        forged = QuorumCertificate(
            block_hash=block_hash,
            vote=Vote.REJECT,
            commits=tuple(
                CommitVote.create(
                    KeyPair.from_seed(member), block_hash, member, Vote.REJECT
                )
                for member in (0, 1)
            ),
        )
        victim = deployment.nodes[3]
        victim.finalized.discard(block_hash)
        deployment.verification.apply_result(victim, forged)
        # Below quorum: the forged certificate is ignored.
        assert not victim.is_finalized(block_hash)

    def test_unsigned_certificate_rejected(self):
        from repro.consensus.quorum import Vote
        from repro.consensus.votes import CommitVote, QuorumCertificate

        deployment, runner = one_cluster()
        report = runner.produce_blocks(1, txs_per_block=2)
        block_hash = report.block_hashes[0]
        bogus = QuorumCertificate(
            block_hash=block_hash,
            vote=Vote.REJECT,
            commits=tuple(
                CommitVote(
                    block_hash=block_hash,
                    member=member,
                    vote=Vote.REJECT,
                    signature=b"\x00" * 64,
                )
                for member in range(5)
            ),
        )
        victim = deployment.nodes[3]
        victim.finalized.discard(block_hash)
        deployment.verification.apply_result(victim, bogus)
        assert not victim.is_finalized(block_hash)
