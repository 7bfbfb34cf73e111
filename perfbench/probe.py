"""Boundary-span probe: times calls into each layer from outside.

The program is not edited.  :meth:`Probe.install` replaces the public
entry points listed in :data:`TARGETS` with timing shims — class methods
on the class, module functions in the defining module *and* in every
loaded ``repro.*`` module that imported the name — and
:meth:`Probe.restore` puts the originals back.  Install before the
deployment is built, so nothing caches an unshimmed bound method.

While :attr:`Probe.recording` is on, every shimmed call is one span on a
stack (single-threaded program, so one stack).  A span's *self time* is
its duration minus the time its child spans cover; a layer's self time
is the sum over its spans, where the layer is the first component of the
span name (the ``src/repro/`` package).
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = (
    "net", "node", "protocols", "chain", "crypto", "consensus",
    "storage", "dht", "core", "clustering", "obs", "sim",
)  # fmt: skip

#: Router owners with a span of their own; any other owner is
#: ``protocols.other``.
_OWNER_SPANS = {
    "dissemination": "protocols.dissemination",
    "verification": "protocols.verification",
    "query": "protocols.query",
    "sync": "protocols.sync",
    "repair": "protocols.repair",
    "dht": "dht.handlers",
}

#: span name -> shim targets, ``module:function`` or ``module:Class.method``.
#: ``Class.*`` means every ``on_*`` hook the class defines; ``Class+.m``
#: means ``m`` on every concrete subclass.
TARGETS: dict[str, tuple[str, ...]] = {
    "net.clock.step": ("repro.net.simclock:SimClock.step",),
    "net.send": (
        "repro.net.network:Network.send",
        "repro.net.network:Network.send_many",
    ),
    "net.topology.rebuild": ("repro.net.topology:clustered_topology",),
    "node.handle_message": ("repro.node.base:BaseNode.handle_message",),
    "chain.validate_block": ("repro.chain.validation:validate_block",),
    "chain.store.add_body": ("repro.chain.chainstore:ChainStore.add_body",),
    "chain.utxo.snapshot": (
        "repro.chain.utxo:UtxoSet.serialize_snapshot",
        "repro.chain.utxo:UtxoSet.deserialize_snapshot",
    ),
    "crypto.sign": ("repro.crypto.signatures:sign",),
    "crypto.verify": ("repro.crypto.signatures:verify",),
    "crypto.merkle_root": ("repro.crypto.merkle:merkle_root",),
    "consensus.pbft.vote": (
        "repro.consensus.pbft:VerificationRound.on_prepare",
        "repro.consensus.pbft:VerificationRound.on_commit",
    ),
    "storage.placement.holders": (
        "repro.storage.placement:PlacementPolicy+.holders",
    ),
    "storage.heat.observe": (
        "repro.storage.heat:HeatTracker.on_send",
        "repro.storage.heat:HeatTracker.on_deliver",
    ),
    "storage.heat.refresh": ("repro.storage.heat:ReplicationPlanner.refresh",),
    "storage.rs_encode": ("repro.storage.erasure:rs_encode",),
    "storage.rs_decode": ("repro.storage.erasure:rs_decode",),
    "storage.archival.maintain": (
        "repro.storage.coded:ArchivalTier.archive",
        "repro.storage.coded:ArchivalTier.maintain",
        "repro.storage.coded:ArchivalTier.reconstruct",
    ),
    "dht.lookup": (
        "repro.dht.engine:DHTEngine.find_holders",
        "repro.dht.engine:DHTEngine.lookup_value",
        "repro.dht.engine:DHTEngine.lookup_node",
    ),
    "dht.routing.update": ("repro.dht.routing:RoutingTable.update",),
    "core.bootstrap.start": ("repro.core.bootstrap:start_bootstrap",),
    "core.departure.start": (
        "repro.core.departure:start_departure",
        "repro.core.departure:start_crash_repair",
    ),
    "core.metrics.observe": (
        "repro.core.metrics:MetricsRecorder.on_send",
        "repro.core.metrics:MetricsRecorder.on_deliver",
    ),
    "clustering.membership.update": (
        "repro.clustering.membership:ClusterTable.add_node",
        "repro.clustering.membership:ClusterTable.remove_node",
    ),
    "obs.tracer.record": (
        "repro.obs.tracer:Tracer.instant",
        "repro.obs.tracer:Tracer.complete",
        "repro.obs.tracer:Tracer.counter",
        "repro.obs.tracer:Tracer.callback_event",
    ),
    "obs.hooks.observe": ("repro.obs.hooks:TracingObserver.*",),
    "obs.summarize": ("repro.obs.summary:summarize",),
    "sim.faults.intercept": ("repro.sim.faults:FaultInjector.intercept",),
    "sim.workload.batch": ("repro.sim.workload:TransactionWorkload.batch",),
}

#: Every span name the probe can report (dispatch spans are dynamic).
SPAN_NAMES = tuple(
    sorted({*TARGETS, *_OWNER_SPANS.values(), "protocols.other"})
)

MAX_RAW_SPANS = 50_000


def _concrete_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_concrete_subclasses(sub))
    return found


class Probe:
    """Span stack + per-name aggregates over shimmed entry points."""

    def __init__(self) -> None:
        self.recording = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Bytes through the Reed-Solomon shims, for codec MB/s.
        self.bytes: dict[str, int] = defaultdict(int)
        #: First MAX_RAW_SPANS spans: [name, start, end, parent index].
        self.raw: list[list] = []
        # Open spans: [child seconds, raw index or -1].
        self._stack: list[list] = []
        # (owner object, attribute, original) for restore().
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- shims
    def _shim(
        self,
        original: Callable,
        name_of: Callable[[tuple], str],
        on_result: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        probe = self
        stack = self._stack
        raw = self.raw
        calls = self.calls
        self_s = self.self_s

        def shim(*args, **kwargs):
            if not probe.recording:
                return original(*args, **kwargs)
            name = name_of(args)
            index = -1
            if len(raw) < MAX_RAW_SPANS:
                index = len(raw)
                raw.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    raw[index][1] = start
                    raw[index][2] = end
            if on_result is not None:
                on_result(args, result)
            return result

        shim.__wrapped__ = original
        return shim

    def _patch(self, owner: object, attr: str, shim: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def _patch_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        shim = self._shim(original, lambda args: name, self._on_result(name))
        # `from x import f` copies the reference: patch every loaded
        # program module that holds the same object.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, shim)

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        wrapper = type(raw) if isinstance(raw, classmethod) else None
        shim = self._shim(
            raw.__func__ if wrapper else raw,
            lambda args: name,
            self._on_result(name),
        )
        self._patch(cls, attr, wrapper(shim) if wrapper else shim)

    def _on_result(self, name: str):
        """Per-span bookkeeping that needs the call's result."""
        if name == "net.clock.step":
            # step() on an empty queue ran no event: one span per event.
            def uncount_empty(args, ran) -> None:
                if not ran:
                    self.calls[name] -= 1

            return uncount_empty
        if name == "storage.rs_encode":
            return lambda args, chunks: self._add_bytes(name, len(args[0]))
        if name == "storage.rs_decode":
            return lambda args, body: self._add_bytes(name, len(body))
        return None

    def _add_bytes(self, name: str, count: int) -> None:
        self.bytes[name] += count

    def _patch_dispatch(self) -> None:
        from repro.protocols.router import MessageRouter

        span_of_kind: dict = {}

        def name_of(args: tuple) -> str:
            router, _node, message = args
            kind = message.kind
            name = span_of_kind.get(kind)
            if name is None:
                name = span_of_kind[kind] = _OWNER_SPANS.get(
                    router.owner_of(kind), "protocols.other"
                )
            return name

        self._patch(
            MessageRouter,
            "dispatch",
            self._shim(MessageRouter.__dict__["dispatch"], name_of),
        )

    def install(self) -> None:
        """Shim every target; call before the deployment is built."""
        for name, targets in TARGETS.items():
            for target in targets:
                mod_name, _, path = target.partition(":")
                module = importlib.import_module(mod_name)
                if "." not in path:
                    self._patch_function(module, path, name)
                    continue
                cls_name, _, attr = path.partition(".")
                if cls_name.endswith("+"):
                    base = getattr(module, cls_name[:-1])
                    for cls in _concrete_subclasses(base):
                        if attr in cls.__dict__:
                            self._patch_method(cls, attr, name)
                    continue
                cls = getattr(module, cls_name)
                attrs = (
                    [a for a in cls.__dict__ if a.startswith("on_")]
                    if attr == "*"
                    else [attr]
                )
                for a in attrs:
                    self._patch_method(cls, a, name)
        self._patch_dispatch()

    def restore(self) -> bool:
        """Put every original back; ``True`` when identity-checked."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(
            owner.__dict__[attr] is original
            for owner, attr, original in self._patched
        )
        self._patched.clear()
        return restored

    # ----------------------------------------------------------- reports
    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.partition(".")[0]] += seconds
        return totals

    def write_raw(self, path: Path, workload: str, wall_s: float) -> None:
        """Dump the first raw spans (seconds relative to the first)."""
        origin = self.raw[0][1] if self.raw else 0.0
        payload = {
            "workload": workload,
            "traced_wall_s": wall_s,
            "fields": ["name", "start_s", "end_s", "parent"],
            "truncated": len(self.raw) >= MAX_RAW_SPANS,
            # 0.1 us is below the clock's own resolution; keeps files small.
            "spans": [
                [name, round(start - origin, 7), round(end - origin, 7), up]
                for name, start, end, up in self.raw
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
