"""Attachment points: how a :class:`~repro.obs.tracer.Tracer` reaches a run.

Tracing is strictly additive — it observes through hook surfaces the
simulator already exposes and never touches protocol state:

* :class:`TracingObserver` implements the router's observer protocol
  (``on_send`` / ``on_deliver`` / ``on_finalize`` plus the optional
  reliability hooks), mirroring per-kind traffic onto per-node tracks.
  Deliveries whose send it witnessed become **queue-latency spans**
  (send → dispatch, virtual time); gossip relays that enter the network
  directly appear as delivery instants.
* :func:`install_tracing` wires one deployment: router observer, the
  simclock callback hook (optional, high volume), and the fault
  injector's tracer slot when one is attached.

:class:`~repro.core.interface.StorageDeployment` calls
:func:`install_tracing` on itself at construction when a tracer is
active (:func:`repro.obs.tracer.active_tracer`), which is how the bench
harness traces workloads that build their own deployments.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.net.message import KIND_VALUE
from repro.obs.tracer import (
    STORAGE_TRACK,
    Tracer,
    node_track,
    proto_track,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.net.simclock import SimClock
    from repro.node.base import BaseNode
    from repro.protocols.router import FinalizeEvent

#: Key sets of the send / deliver ``args``, recorded already packed
#: (``(keys, *values)``, see :meth:`Tracer.instant`): no dict per message.
_SEND_KEYS = ("to", "bytes")
_DELIVER_KEYS = ("from", "bytes")

#: Cap on the in-flight send-timestamp map: sends that are never
#: delivered (drops, crashes) must not grow memory without bound.
_PENDING_SEND_LIMIT = 100_000


class _NodeTracks(dict):
    """node id -> that node's one track tuple, built on first use."""

    def __init__(self, label: str) -> None:
        self._label = label

    def __missing__(self, node_id: int) -> tuple:
        track = self[node_id] = node_track(node_id, self._label)
        return track


class TracingObserver:
    """Router observer mirroring protocol traffic into a tracer.

    One observer serves one deployment (it holds that deployment's clock
    and track label); a single tracer can carry several observers, which
    is how multi-deployment comparison workloads share one trace.
    """

    def __init__(
        self,
        tracer: Tracer,
        clock: "SimClock",
        label: str = "",
        deployment=None,
    ) -> None:
        self._tracer = tracer
        self._clock = clock
        self._label = label
        # Bound once: a recorded event is this hook's frame plus one
        # record frame (tests/test_message_path.py counts them).
        self._instant = tracer.instant
        self._complete = tracer.complete
        self._tracks = _NodeTracks(label)
        self._reliability = proto_track("reliability", label)
        self._consensus = proto_track("consensus", label)
        # With a clustered deployment attached, cluster-final finalizes
        # additionally sample that cluster's ledger bytes as a counter
        # series (the paper's headline storage claim over virtual time).
        self._deployment = deployment
        # message_id -> send virtual time, for queue-latency spans.
        self._sent_at: dict[int, float] = {}

    # -------------------------------------------------------- router hooks
    def on_send(self, message: "Message") -> None:
        """A node handed a protocol message to the network."""
        now = self._clock.now
        sent_at = self._sent_at
        if len(sent_at) >= _PENDING_SEND_LIMIT:
            sent_at.pop(next(iter(sent_at)))
        sent_at[message.message_id] = now
        self._instant(
            KIND_VALUE[message.kind],
            self._tracks[message.sender],
            now,
            "send",
            (_SEND_KEYS, message.recipient, message.size_bytes),
        )

    def on_deliver(self, node: "BaseNode", message: "Message") -> None:
        """A message is dispatched: close its queue-latency span."""
        now = self._clock.now
        start = self._sent_at.pop(message.message_id, None)
        track = self._tracks[message.recipient]
        kind = KIND_VALUE[message.kind]
        args = (_DELIVER_KEYS, message.sender, message.size_bytes)
        if start is None:
            # Relay or duplicate: no witnessed send to anchor a span.
            self._instant(kind, track, now, "deliver", args)
        else:
            self._complete(kind, track, start, now - start, "deliver", args)

    def on_finalize(self, event: "FinalizeEvent") -> None:
        """A block finalized somewhere: mark the node (or the cluster)."""
        node_id = event.node_id
        self._instant(
            "finalize",
            self._consensus if node_id is None else self._tracks[node_id],
            event.at,
            "finalize",
            {
                "cluster": event.cluster_id,
                "accepted": event.accepted,
                "cluster_final": event.cluster_final,
            },
        )
        if (
            event.cluster_final
            and event.cluster_id is not None
            and self._deployment is not None
        ):
            record_cluster_storage(
                self._tracer,
                self._deployment,
                event.cluster_id,
                event.at,
                label=self._label,
            )

    # --------------------------------------------------- reliability hooks
    def on_retry(self, kind: str) -> None:
        """A reliability-layer retry fired for ``kind``."""
        self._instant(kind, self._reliability, self._clock.now, "retry")

    def on_timeout(self, kind: str) -> None:
        """A request deadline fired while still pending."""
        self._instant(kind, self._reliability, self._clock.now, "timeout")

    def on_degraded(self, kind: str) -> None:
        """A request exhausted every replica."""
        self._instant(kind, self._reliability, self._clock.now, "degraded")


def record_cluster_storage(
    tracer: Tracer,
    deployment,
    cluster_id: int,
    ts: float,
    label: str = "",
) -> None:
    """Sample one cluster's total ledger bytes as a counter event.

    Emits a Chrome ``ph: "C"`` sample on the simulator storage track:
    Perfetto charts the series over virtual time, which is the paper's
    headline claim (each cluster stores one full ledger *collectively*)
    made visible.  No-op for deployments without a cluster table.
    """
    clusters = getattr(deployment, "clusters", None)
    nodes = getattr(deployment, "nodes", None)
    if clusters is None or nodes is None:
        return
    try:
        members = clusters.members_of(cluster_id)
    except Exception:  # dissolved mid-run
        return
    total = sum(
        nodes[member].store.stored_bytes
        for member in members
        if member in nodes
    )
    tracer.counter(
        _cluster_series(cluster_id, label),
        STORAGE_TRACK,
        {"bytes": total},
        ts=ts,
        category="storage",
    )


@lru_cache(maxsize=1024)
def _cluster_series(cluster_id: int, label: str) -> str:
    """One cluster's counter-series name (one string for all samples)."""
    name = f"cluster {cluster_id} ledger bytes"
    return f"{label} {name}" if label else name


def record_tier_storage(
    tracer: Tracer,
    deployment,
    planner,
    ts: float,
    label: str = "",
) -> None:
    """Sample held body bytes per heat tier as counter events.

    One ``ph: "C"`` sample per tier ("tier hot ledger bytes", …): charted
    over virtual time the hot series grows as extra replicas land and the
    cold series shrinks as the shed pass drains surplus copies — the
    adaptive-replication storage claim made visible.  Called from the
    planner's refresh, so the cadence matches the anti-entropy sweep.
    """
    totals = planner.tier_body_bytes()
    for tier, total in totals.items():
        name = f"tier {tier} ledger bytes"
        if label:
            name = f"{label} {name}"
        tracer.counter(
            name,
            STORAGE_TRACK,
            {"bytes": total},
            ts=ts,
            category="storage",
        )


def record_coded_storage(
    tracer: Tracer,
    tier,
    ts: float,
    label: str = "",
) -> None:
    """Sample the archival tier's total coded bytes as a counter event.

    One ``ph: "C"`` series ("tier archival coded bytes"): charted over
    virtual time it rises as cold blocks transition to k-of-n chunks
    and falls as blocks thaw back to replicas — the coded-tier storage
    claim made visible next to the per-tier replica series.
    """
    name = "tier archival coded bytes"
    if label:
        name = f"{label} {name}"
    tracer.counter(
        name,
        STORAGE_TRACK,
        {"bytes": tier.total_chunk_bytes},
        ts=ts,
        category="storage",
    )


def install_tracing(
    deployment,
    tracer: Tracer,
    *,
    callbacks: bool | None = None,
    label: str | None = None,
) -> TracingObserver | None:
    """Attach ``tracer`` to one deployment through the hook surfaces.

    Args:
        deployment: any :class:`~repro.core.interface.StorageDeployment`.
        tracer: the recording sink.
        callbacks: also hook simclock callback execution (defaults to
            ``tracer.trace_callbacks``).  High volume — every simulated
            event — but the ring buffer bounds it.
        label: track label; defaults to a per-tracer-unique class name,
            so multi-deployment workloads keep separate node timelines.

    Returns the installed observer (tests inspect it).  A disabled
    tracer — ``enabled`` is fixed at construction — attaches nothing and
    returns ``None``: the run takes the exact untraced code path.
    """
    if not tracer.enabled:
        return None
    if label is None:
        label = tracer.label_for(deployment)
    clock = deployment.network.clock
    tracer.bind_clock(clock)
    observer = TracingObserver(tracer, clock, label, deployment=deployment)
    deployment.router.add_observer(observer)
    if callbacks if callbacks is not None else tracer.trace_callbacks:
        clock.attach_tracer(tracer)
    faults = deployment.network.faults
    if faults is not None:
        faults.attach_tracer(tracer)
    # Engines with a tracer slot (the anti-entropy engine) mirror their
    # audit/repair decisions as instants; engines built inside a
    # tracing() scope self-attached already — this covers the rest.
    for engine in getattr(deployment, "engines", {}).values():
        attach = getattr(engine, "attach_tracer", None)
        if attach is not None:
            attach(tracer)
    return observer
