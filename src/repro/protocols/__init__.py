"""Pluggable protocol engines and the message router they share.

The package decomposes a deployment's wire behaviour into engines —
dissemination, verification, body transfer, query, sync and repair —
each owning one protocol family's state and message handlers, all
dispatched through a single :class:`~repro.protocols.router.MessageRouter`.
"""

from repro.protocols.dissemination import DisseminationEngine
from repro.protocols.intracluster import IntraClusterEngine
from repro.protocols.query import QUERY_TIMEOUT, QueryEngine
from repro.protocols.router import (
    FinalizeEvent,
    MessageRouter,
    ProtocolEngine,
    RouterObserver,
)
from repro.protocols.sync import SyncEngine

__all__ = [
    "DisseminationEngine",
    "FinalizeEvent",
    "IntraClusterEngine",
    "MessageRouter",
    "ProtocolEngine",
    "QUERY_TIMEOUT",
    "QueryEngine",
    "RouterObserver",
    "SyncEngine",
]
