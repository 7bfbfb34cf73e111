"""Exception hierarchy for the :mod:`repro` library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems define
narrower classes below; modules never raise bare ``Exception`` or
``ValueError`` for domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario, strategy, or component was configured inconsistently."""


class FaultConfigError(ConfigurationError):
    """A fault was asked for that cannot happen (unknown kind, no zones)."""


class CryptoError(ReproError):
    """Base class for failures in the crypto substrate."""


class MerkleError(CryptoError):
    """A Merkle tree or proof was malformed or failed verification."""


class ChainError(ReproError):
    """Base class for ledger-level failures."""


class ValidationError(ChainError):
    """A transaction or block violated a consensus rule."""


class UnknownBlockError(ChainError):
    """A block hash was requested that the store does not know."""


class UnknownTransactionError(ChainError):
    """A transaction id was requested that is not known."""


class ForkError(ChainError):
    """A chain reorganization could not be performed."""


class ProtocolError(ReproError):
    """A protocol message could not be routed to a registered handler."""


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class UnknownNodeError(NetworkError):
    """A message was addressed to a node id not registered on the network."""


class ClusteringError(ReproError):
    """Cluster formation or membership maintenance failed."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class PlacementError(StorageError):
    """A placement policy could not assign a block to holders."""


class ConsensusError(ReproError):
    """Intra-cluster verification / consensus failed to reach quorum."""


class BootstrapError(ReproError):
    """A joining node could not complete its synchronization."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ObservabilityError(ReproError):
    """Misuse of the tracing/telemetry layer (:mod:`repro.obs`)."""
