"""SPV light-client helper: headers-only participants.

Not a full storage strategy (light clients store no bodies at all and rely
on serving peers), but a useful yardstick in the bootstrap experiment: the
joiner cost floor is the header chain.
"""

from __future__ import annotations

from repro.chain.block import HEADER_SIZE


def spv_bootstrap_bytes(chain_height: int) -> int:
    """Bytes an SPV client downloads to sync: headers only."""
    if chain_height < 0:
        raise ValueError("chain height must be >= 0")
    return HEADER_SIZE * (chain_height + 1)
