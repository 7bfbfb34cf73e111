"""Router coverage: constructed message kinds vs. registered handlers.

Guards the refactor's central invariant: every message kind any code in
``src/repro/`` actually puts on the wire has exactly one registered
handler in the deployments that speak it, and a kind nobody registered
raises :class:`ProtocolError` loudly instead of being silently dropped.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ProtocolError
from repro.net.message import MessageKind, sized_message
from repro.protocols.router import MessageRouter
from tests.conftest import TEST_LIMITS

SRC = Path(repro.__file__).parent
_KIND_RE = re.compile(r"MessageKind\.([A-Z_]+)")


def referenced_kinds(*paths: Path) -> set[MessageKind]:
    """Every kind referenced in the given sources (files or packages),
    excluding the enum's own definition module."""
    kinds: set[MessageKind] = set()
    for root in paths:
        files = root.rglob("*.py") if root.is_dir() else [root]
        for path in files:
            if path.name == "message.py" and path.parent.name == "net":
                continue
            for match in _KIND_RE.finditer(path.read_text()):
                kinds.add(MessageKind[match.group(1)])
    return kinds


def make_ici() -> ICIDeployment:
    return ICIDeployment(
        8,
        config=ICIConfig(n_clusters=2, replication=2, limits=TEST_LIMITS),
    )


def make_full() -> FullReplicationDeployment:
    return FullReplicationDeployment(6, limits=TEST_LIMITS)


def make_rapidchain() -> RapidChainDeployment:
    return RapidChainDeployment(8, n_committees=2, limits=TEST_LIMITS)


DEPLOYMENTS = [make_ici, make_full, make_rapidchain]


class TestKindCoverage:
    def test_ici_router_covers_every_constructed_kind(self):
        """The ICI router handles exactly the kinds src/repro constructs
        outside the baselines (whose own sync keeps ``SYNC_BODIES``)."""
        deployment = make_ici()
        ici_sources = [
            path for path in SRC.iterdir() if path.name != "baselines"
        ]
        assert deployment.router.handled_kinds == referenced_kinds(
            *ici_sources
        )

    def test_full_replication_covers_its_own_kinds(self):
        deployment = make_full()
        module = SRC / "baselines" / "full_replication.py"
        assert referenced_kinds(module) <= deployment.router.handled_kinds

    def test_rapidchain_covers_its_own_kinds(self):
        deployment = make_rapidchain()
        module = SRC / "baselines" / "rapidchain.py"
        assert referenced_kinds(module) <= deployment.router.handled_kinds

    def test_ici_kinds_owned_by_installed_engines(self):
        """Each handled kind has exactly one owner, a registered engine."""
        deployment = make_ici()
        owners = {
            kind: deployment.router.owner_of(kind)
            for kind in deployment.router.handled_kinds
        }
        assert set(owners.values()) == set(deployment.engines)


class TestDispatchFailures:
    @pytest.mark.parametrize("factory", DEPLOYMENTS)
    def test_unknown_kind_raises_protocol_error(self, factory):
        deployment = factory()
        node = deployment.nodes[1]
        kind = next(
            kind
            for kind in MessageKind
            if kind not in deployment.router.handled_kinds
        )
        rogue = sized_message(kind, 0, 1, None, 16)
        with pytest.raises(ProtocolError, match=kind.value):
            deployment.on_message(node, rogue)

    def test_fresh_router_rejects_everything(self):
        router = MessageRouter()
        message = sized_message(MessageKind.CONTROL, 0, 1, ("ping",), 8)
        node = type("N", (), {"node_id": 1})()
        with pytest.raises(ProtocolError, match="control"):
            router.dispatch(node, message)

    def test_duplicate_registration_rejected(self):
        router = MessageRouter()
        router.register(
            MessageKind.CONTROL, lambda node, message: None, owner="first"
        )
        with pytest.raises(ProtocolError, match="first"):
            router.register(
                MessageKind.CONTROL,
                lambda node, message: None,
                owner="second",
            )
        assert router.owner_of(MessageKind.CONTROL) == "first"


class _Hooks:
    """Observer logging ``(tag, hook)`` per call; defines only ``hooks``."""

    def __init__(self, tag: str, log: list, hooks: tuple[str, ...]) -> None:
        for name in hooks:
            setattr(
                self, name, lambda *args, _name=name: log.append((tag, _name))
            )


ALL_HOOKS = (
    "on_send", "on_deliver", "on_finalize",
    "on_retry", "on_timeout", "on_degraded",
)  # fmt: skip


class TestObservers:
    def test_observer_added_after_nodes_attached_is_called(self):
        # Nodes bind their delivery entry at attach(); the observer lists
        # it loops over are read per message, so a late observer counts.
        deployment = make_ici()
        log: list = []
        deployment.router.add_observer(_Hooks("late", log, ALL_HOOKS))
        deployment.nodes[0].send(MessageKind.CONTROL, 1, (1,), 8)
        deployment.run()
        assert ("late", "on_send") in log and ("late", "on_deliver") in log
        stats = deployment.metrics.router_stats
        assert stats.sends["control"] == stats.deliveries["control"] == 1

    def test_missing_optional_hooks_tolerated(self):
        router = MessageRouter()
        log: list = []
        router.add_observer(_Hooks("core", log, ALL_HOOKS[:3]))
        router.add_observer(_Hooks("none", log, ()))
        router.note_retry("query")
        router.note_timeout("query")
        router.note_degraded("query")
        router.note_send(sized_message(MessageKind.CONTROL, 0, 1, None, 8))
        assert log == [("core", "on_send")]

    def test_hooks_run_in_add_observer_order(self):
        router = MessageRouter()
        log: list = []
        router.register(
            MessageKind.CONTROL,
            lambda node, message: log.append(("handler", "")),
        )
        for tag in ("a", "b", "c"):
            router.add_observer(_Hooks(tag, log, ALL_HOOKS))
        message = sized_message(MessageKind.CONTROL, 0, 1, None, 8)
        router.note_send(message)
        router.dispatch(type("N", (), {"node_id": 1})(), message)
        router.notify_finalize(None)
        router.note_retry("k")
        router.note_timeout("k")
        router.note_degraded("k")
        expected = []
        for name in ALL_HOOKS:
            expected += [(tag, name) for tag in ("a", "b", "c")]
            if name == "on_deliver":  # observers first, then the handler
                expected.append(("handler", ""))
        assert log == expected

    def test_overridden_on_message_receives_every_delivery(self):
        seen: list = []

        class Tapped(ICIDeployment):
            def on_message(self, node, message):
                seen.append(message.message_id)
                super().on_message(node, message)

        deployment = Tapped(
            8,
            config=ICIConfig(n_clusters=2, replication=2, limits=TEST_LIMITS),
        )
        for sender in range(4):
            deployment.nodes[sender].send(MessageKind.CONTROL, 7, (1,), 8)
        deployment.run()
        traffic = deployment.network.traffic
        assert len(seen) == traffic.total_messages >= 4
        assert (
            deployment.metrics.router_stats.total_deliveries
            == traffic.total_messages
        )

    def test_plain_deployment_binds_router_dispatch(self):
        deployment = make_ici()
        assert deployment.delivery_entry == deployment.router.dispatch
        assert deployment.nodes[0]._dispatch == deployment.router.dispatch
