"""Ledger substrate: transactions, blocks, validation, UTXO set, chain store."""

from repro.chain.block import HEADER_SIZE, Block, BlockHeader, build_block
from repro.chain.chainstore import ChainStore, Ledger
from repro.chain.genesis import (
    DEFAULT_FAUCET_VALUE,
    GENESIS_TIMESTAMP,
    make_genesis,
)
from repro.chain.mempool import Mempool, MempoolEntry
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    make_signed_transfer,
)
from repro.chain.utxo import UndoRecord, UtxoEntry, UtxoSet
from repro.chain.validation import (
    BLOCK_REWARD,
    DEFAULT_LIMITS,
    MAX_BLOCK_BODY_BYTES,
    MAX_TX_BYTES,
    ValidationLimits,
    check_block_stateful,
    check_block_stateless,
    check_header_linkage,
    check_transaction_stateful,
    check_transaction_stateless,
    estimate_verification_cost,
    header_check_cost,
    validate_block,
)

__all__ = [
    "HEADER_SIZE",
    "Block",
    "BlockHeader",
    "build_block",
    "ChainStore",
    "Ledger",
    "DEFAULT_FAUCET_VALUE",
    "GENESIS_TIMESTAMP",
    "make_genesis",
    "Mempool",
    "MempoolEntry",
    "OutPoint",
    "Transaction",
    "TxInput",
    "TxOutput",
    "make_coinbase",
    "make_signed_transfer",
    "UndoRecord",
    "UtxoEntry",
    "UtxoSet",
    "BLOCK_REWARD",
    "DEFAULT_LIMITS",
    "MAX_BLOCK_BODY_BYTES",
    "MAX_TX_BYTES",
    "ValidationLimits",
    "check_block_stateful",
    "check_block_stateless",
    "check_header_linkage",
    "check_transaction_stateful",
    "check_transaction_stateless",
    "estimate_verification_cost",
    "header_check_cost",
    "validate_block",
]
