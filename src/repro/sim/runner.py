"""The experiment runner: drives blocks through any deployment.

The runner plays the role the authors' testbed driver plays: it seals
valid blocks from a synthetic workload at a configurable cadence, injects
each at a schedule-chosen proposer, and lets the deployment's own
protocols do the rest.  All experiment benches sit on top of this one
loop, so strategies are compared under byte-identical block streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.block import Block, build_block
from repro.chain.mempool import Mempool
from repro.chain.transaction import make_coinbase
from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.consensus.proposer import BlockProposer, ProposerSchedule
from repro.core.interface import StorageDeployment
from repro.crypto.hashing import Hash32
from repro.crypto.keys import KeyPair
from repro.errors import SimulationError
from repro.sim.workload import TransactionWorkload, WorkloadConfig


@dataclass
class RunReport:
    """What one production run did."""

    blocks_produced: int = 0
    transactions_produced: int = 0
    total_body_bytes: int = 0
    block_hashes: list[Hash32] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)


class ScenarioRunner:
    """Seals blocks from a workload and feeds them to a deployment."""

    def __init__(
        self,
        deployment: StorageDeployment,
        workload: TransactionWorkload | None = None,
        limits: ValidationLimits = DEFAULT_LIMITS,
        block_interval: float = 10.0,
        seed: int = 0,
    ) -> None:
        self.deployment = deployment
        self.workload = workload or TransactionWorkload(WorkloadConfig())
        self.limits = limits
        self.block_interval = block_interval
        self.schedule = ProposerSchedule(
            sorted(deployment.nodes), seed=seed
        )
        genesis = self._find_genesis()
        self._tip_hash = genesis.block_hash
        self._tip_height = 0
        self.workload.on_block_confirmed(genesis)

    def _find_genesis(self) -> Block:
        ledger = getattr(self.deployment, "ledger", None)
        if ledger is not None:
            return ledger.store.body(ledger.active_hash_at(0))
        genesis = getattr(self.deployment, "genesis", None)
        if genesis is None:
            raise SimulationError(
                "deployment exposes neither .ledger nor .genesis"
            )
        return genesis

    # ------------------------------------------------------------- driving
    def produce_blocks(
        self,
        n_blocks: int,
        txs_per_block: int = 20,
        drain_between_blocks: bool = True,
        drain_at_end: bool = True,
    ) -> RunReport:
        """Seal and disseminate ``n_blocks`` consecutive blocks.

        Args:
            n_blocks: how many blocks to produce.
            txs_per_block: workload transfers offered per block (actual
                count can be lower early on, while coins fan out).
            drain_between_blocks: when ``True`` (default) the simulator
                runs to quiescence after each block — every cluster
                finalizes before the next block is sealed.  When ``False``
                blocks are spaced ``block_interval`` apart and may pipeline.
            drain_at_end: when ``True`` (default) the simulator runs to
                quiescence after the last block.  Endurance runs pass
                ``False`` because a periodic engine (the anti-entropy
                sweep) keeps the event queue perpetually non-empty.
        """
        report = RunReport()
        for _ in range(n_blocks):
            block = self._seal_next(txs_per_block)
            proposer = self._live_proposer(block.height)
            self.deployment.disseminate(block, proposer)
            report.blocks_produced += 1
            report.transactions_produced += len(block.transactions) - 1
            report.total_body_bytes += block.body_size_bytes
            report.block_hashes.append(block.block_hash)
            report.blocks.append(block)
            self.workload.on_block_confirmed(block)
            if drain_between_blocks:
                self.deployment.run()
            else:
                self.deployment.run_for(self.block_interval)
        if drain_at_end:
            self.deployment.run()
        return report

    def produce_blocks_via_relay(
        self, n_blocks: int, txs_per_block: int = 20
    ) -> RunReport:
        """Realistic pipeline: relay transactions first, then propose.

        Each round submits the workload's transfers at random nodes, lets
        tx gossip spread them to every mempool, and has the scheduled
        proposer seal the block **from its own mempool** — exactly how a
        real network fills blocks.  Requires a deployment exposing
        ``submit_transaction``/``mempool_of`` (the ICI deployment does).
        """
        import random

        submit = getattr(self.deployment, "submit_transaction", None)
        mempool_of = getattr(self.deployment, "mempool_of", None)
        if submit is None or mempool_of is None:
            raise SimulationError(
                "deployment does not support transaction relay"
            )
        rng = random.Random(0x51)
        report = RunReport()
        for _ in range(n_blocks):
            # Re-read the population each round: churn may have run.
            node_ids = sorted(self.deployment.nodes)
            offered = self.workload.batch(txs_per_block)
            for tx in offered:
                submit(tx, rng.choice(node_ids))
            self.deployment.run()  # relay to quiescence

            height = self._tip_height + 1
            proposer_id = self._live_proposer(height)
            proposer_node = self.deployment.nodes[proposer_id]
            builder = BlockProposer(
                miner_address=proposer_node.address,  # type: ignore[attr-defined]
                limits=self.limits,
            )
            block = builder.propose(
                height=height,
                prev_hash=self._tip_hash,
                mempool=mempool_of(proposer_id),
                timestamp=height * self.block_interval,
                utxos=self._parent_utxos(),
            )
            self._tip_hash = block.block_hash
            self._tip_height = height
            self.deployment.disseminate(block, proposer_id)
            self.deployment.run()

            included = set(tx.txid for tx in block.transactions)
            self.workload.release_pending(
                [tx for tx in offered if tx.txid not in included]
            )
            self.workload.on_block_confirmed(block)
            report.blocks_produced += 1
            report.transactions_produced += len(block.transactions) - 1
            report.total_body_bytes += block.body_size_bytes
            report.block_hashes.append(block.block_hash)
            report.blocks.append(block)
        return report

    def produce_fork(
        self, fork_from_height: int, length: int
    ) -> list[Block]:
        """Disseminate a competing branch rooted at a past block.

        Builds ``length`` coinbase-only blocks on top of the canonical
        block at ``fork_from_height`` (empty bodies keep the branch valid
        without forked wallet state) and injects each through the normal
        dissemination path.  When the branch outgrows the canonical
        chain, fork-aware deployments reorganize onto it.

        Returns the branch blocks, tip last.
        """
        ledger = getattr(self.deployment, "ledger", None)
        if ledger is None:
            raise SimulationError("deployment exposes no canonical ledger")
        prev_hash = ledger.active_hash_at(fork_from_height)
        prev_header = ledger.store.header(prev_hash)
        branch: list[Block] = []
        for offset in range(1, length + 1):
            height = fork_from_height + offset
            miner = KeyPair.from_seed(7_000_000 + height)
            block = build_block(
                height=height,
                prev_hash=prev_hash,
                transactions=[
                    make_coinbase(
                        self.limits.block_reward, miner.address, height
                    )
                ],
                timestamp=prev_header.timestamp + 0.5 * offset,
                nonce=height + 1_000_000,  # distinct from mainline nonce
            )
            proposer = self._live_proposer(height)
            self.deployment.disseminate(block, proposer)
            self.deployment.run()
            branch.append(block)
            prev_hash = block.block_hash
            prev_header = block.header
        new_tip = ledger.tip
        if new_tip is not None and new_tip.block_hash == prev_hash:
            # The deployment reorged onto the fork: future sealing must
            # extend it, and the workload's confirmations on the stale
            # branch are void — replay the surviving chain.
            self._tip_hash = prev_hash
            self._tip_height = new_tip.height
            self.workload.reset_from_chain(
                ledger.store.body(header.block_hash)
                for header in ledger.store.iter_active_headers()
                if ledger.store.has_body(header.block_hash)
            )
        return branch

    def _seal_next(self, txs_per_block: int) -> Block:
        height = self._tip_height + 1
        proposer_id = self._live_proposer(height)
        proposer_node = self.deployment.nodes[proposer_id]
        builder = BlockProposer(
            miner_address=proposer_node.address,  # type: ignore[attr-defined]
            limits=self.limits,
        )
        transactions = self.workload.batch(txs_per_block)
        # Nominal timestamps (height × interval) keep the block stream
        # byte-identical across strategies regardless of simulated delays.
        block = builder.propose(
            height=height,
            prev_hash=self._tip_hash,
            mempool=Mempool(limits=self.limits),
            timestamp=height * self.block_interval,
            extra_transactions=transactions,
            utxos=self._parent_utxos(),
        )
        self._tip_hash = block.block_hash
        self._tip_height = height
        return block

    def _live_proposer(self, height: int) -> int:
        """The scheduled proposer, skipping nodes that have departed.

        Departed members are dropped from the rotation on sight, so the
        schedule self-heals without callers wiring churn into it.
        """
        while True:
            proposer = self.schedule.proposer_at(height)
            if proposer in self.deployment.nodes:
                return proposer
            self.schedule.remove(proposer)

    def _parent_utxos(self):
        """The parent chain state, for coinbase fee claiming (or None)."""
        ledger = getattr(self.deployment, "ledger", None)
        return ledger.utxos if ledger is not None else None

    @property
    def chain_height(self) -> int:
        """Height of the last sealed block."""
        return self._tip_height
