"""Network substrate: virtual clock, latency models, topologies, gossip."""

from repro.net.gossip import GossipProtocol, GossipStats
from repro.net.latency import (
    DEFAULT_BANDWIDTH_BPS,
    ConstantLatency,
    CoordinateLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.message import (
    ENVELOPE_OVERHEAD,
    Message,
    MessageKind,
    sized_message,
)
from repro.net.network import Endpoint, Network
from repro.net.simclock import EventHandle, SimClock
from repro.net.topology import (
    Topology,
    clustered_topology,
    full_mesh,
    is_connected,
    random_regular,
)
from repro.net.traffic import TrafficLedger

__all__ = [
    "GossipProtocol",
    "GossipStats",
    "DEFAULT_BANDWIDTH_BPS",
    "ConstantLatency",
    "CoordinateLatency",
    "LatencyModel",
    "UniformLatency",
    "ENVELOPE_OVERHEAD",
    "Message",
    "MessageKind",
    "sized_message",
    "Endpoint",
    "Network",
    "EventHandle",
    "SimClock",
    "Topology",
    "clustered_topology",
    "full_mesh",
    "is_connected",
    "random_regular",
    "TrafficLedger",
]
