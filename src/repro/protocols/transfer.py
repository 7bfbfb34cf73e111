"""Body transfer: the one way a member fetches a body it lacks.

Flows ``read`` (:mod:`repro.protocols.query`), ``pull``
(:mod:`repro.protocols.repair`) and ``batch`` (join and departure,
:mod:`repro.protocols.sync`) send ``BLOCK_REQUEST(request_id, flow,
hashes)``; the source answers on ``BLOCK_BODY`` with ``("serve",
request_id, flow, bodies)``, the asked-for bodies it holds, or
``("miss", request_id, flow, ())``.  Dissemination forwards those two
tags to :meth:`TransferEngine.accept`, the one step that stores a
fetched body.  Each flow resolves its own request ids and keeps its own
holder plan, retry tracker and wire sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Sequence

from repro.chain.block import Block
from repro.crypto.hashing import Hash32
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.router import MessageRouter, ProtocolEngine


@dataclass(frozen=True)
class Flow:
    """How one flow answers a miss and takes its replies.

    ``wanted(requester, request_id)`` is what the request still wants
    (``None`` once it is over: its replies are dropped unread);
    ``on_reply(requester, source, request_id, bodies)`` gets the bodies
    that passed the accept step (none for a miss); ``keeps(requester,
    block)`` says whether the requester stores such a body.
    """

    miss_bytes: int
    wanted: Callable[[ClusterNode, int], "Collection[Hash32] | None"]
    on_reply: Callable[[ClusterNode, int, int, list[Block]], None]
    keeps: Callable[[ClusterNode, Block], bool] = lambda node, block: True


class TransferEngine(ProtocolEngine):
    """Serves ``BLOCK_REQUEST`` and accepts the bodies that come back."""

    name = "transfer"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        #: Flow name -> its reply handling; each flow registers itself.
        self.flows: dict[str, Flow] = {}

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.BLOCK_REQUEST, self._on_request, owner=self.name
        )

    def request(
        self,
        requester: BaseNode,
        source: int,
        flow: str,
        request_id: int,
        hashes: Sequence[Hash32],
        size: int,
    ) -> None:
        """Ask ``source`` for the bodies of ``hashes`` on ``flow``."""
        requester.send(
            MessageKind.BLOCK_REQUEST, source, (request_id, flow, hashes), size
        )

    def _on_request(self, node: BaseNode, message: Message) -> None:
        """The source serves what it holds, or answers a miss."""
        assert isinstance(node, ClusterNode)
        request_id, flow, hashes = message.payload
        store = node.store
        bodies = tuple(store.body(h) for h in hashes if store.has_body(h))
        node.send(
            MessageKind.BLOCK_BODY,
            message.sender,
            ("serve" if bodies else "miss", request_id, flow, bodies),
            sum(body.size_bytes for body in bodies)
            if bodies
            else self.flows[flow].miss_bytes,
        )

    def accept(self, node: ClusterNode, message: Message) -> None:
        """The requester checks and stores a reply, then hands it over.

        A served body passes only if the flow still wants its hash and
        its transactions match the header's Merkle root; a body that
        fails either check is dropped, and the flow sees it as a miss.
        """
        _tag, request_id, flow_name, bodies = message.payload
        flow = self.flows[flow_name]
        wanted = flow.wanted(node, request_id)
        if wanted is None:
            return
        accepted: list[Block] = []
        for block in bodies:
            if (
                block.block_hash not in wanted
                or not block.verify_merkle_commitment()
            ):
                continue
            if flow.keeps(node, block):
                node.backfill_headers(
                    block.header, self.deployment.ledger.store
                )
                node.assign_body(block)
            accepted.append(block)
        flow.on_reply(node, message.sender, request_id, accepted)
