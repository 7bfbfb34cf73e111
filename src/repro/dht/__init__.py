"""Kademlia-style DHT overlay (opt-in; see DESIGN.md "DHT overlay").

Submodules:

* :mod:`repro.dht.idspace` — the 160-bit XOR-metric id space.
* :mod:`repro.dht.routing` — k-bucket routing tables (pure data).
* :mod:`repro.dht.records` — provider records with virtual-time expiry.
* :mod:`repro.dht.engine` — the protocol engine: FIND_NODE/FIND_VALUE/
  STORE over the deployment's message router, iterative α-parallel
  lookups on the shared request tracker.
"""

from repro.dht.engine import DHTEngine, DHTStats
from repro.dht.idspace import ID_BITS, block_key, node_key
from repro.dht.records import ProviderStore
from repro.dht.routing import Contact, KBucket, RoutingTable

__all__ = [
    "DHTEngine",
    "DHTStats",
    "ID_BITS",
    "block_key",
    "node_key",
    "ProviderStore",
    "Contact",
    "KBucket",
    "RoutingTable",
]
