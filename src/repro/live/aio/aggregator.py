"""Asyncio intra-group aggregator (two-tier topology, repro.live.aio).

A :class:`~repro.live.aio.node.Node` showing both faces: the listener
face to its members (a shard, as far as they can tell) and the dial
face to the root shards (one client whose ``sender_id`` is the group
id).  What is left here is the protocol between the two: member
gradients are summed in member-id order and pushed upstream as one
contribution, and the root's answer to it is fanned out to every member
— so two-tier runs stay bit-identical to the in-process grouped store.
The driver only instantiates it when ``cfg.two_tier`` is set.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...placement.keyplan import KeyTable
from ..config import LiveClusterConfig
from ..result import LiveAggregatorError
from ..transport import CONTROL_PRIORITY, TokenBucket, TransportError
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection


class AioAggregator(Node):
    """One group's combine/forward node on the event loop."""

    def __init__(self, group_id: int, cfg: LiveClusterConfig,
                 plan: KeyTable, epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"agg{group_id}", group_id,
                         cfg.aggregator_machine(group_id), cfg, epoch0, shaper)
        self.gid = group_id
        self.members = list(cfg.worker_groups()[group_id])
        self._meta = {pk.key: pk for pk in plan}
        self._up_conns: List[PeerConnection] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, addresses: List[Tuple[str, int]]) -> int:
        """Dial every root shard, then listen for members; return port."""
        self._up_conns = await self.dial_peers(addresses,
                                               self.cfg.server_machine)
        return await self.listen(self.cfg.worker_machine)

    async def run(self) -> None:
        """Serve until every member said BYE, then say BYE upstream."""
        budget = self.cfg.round_timeout_s * self.cfg.iterations
        # Only members dial in: the roots never say BYE to their clients.
        if not await self._wait(lambda: sum(c.saw_bye for c in self.conns)
                                >= len(self.members), budget):
            self._fail("members never completed")
        if self.error is not None:
            raise LiveAggregatorError(f"aggregator {self.gid}: {self.error}")
        for conn in self._up_conns:
            try:
                conn.sender.send(WireKind.BYE, 0, 0, CONTROL_PRIORITY)
            except TransportError:
                pass
        await self.shutdown(self.cfg.peer_timeout_s)

    # ------------------------------------------------------------------
    # Protocol (synchronous handlers)
    # ------------------------------------------------------------------
    def _on_client(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is not WireKind.PUSH:
            raise self._unexpected(conn, msg)
        if msg.key not in self._meta:
            raise KeyError(f"aggregator {self.gid}: unknown key {msg.key}")
        staged = self._stage(msg)
        if len(staged) == len(self.members):
            # Sum in member-id order — the in-process grouped store's
            # accumulation order, hence bit-identical.
            acc = staged[self.members[0]].copy()
            for w in self.members[1:]:
                acc += staged[w]
            del self._staged[(msg.key, msg.iteration)]
            meta = self._meta[msg.key]
            self._up_conns[meta.server].sender.send(
                WireKind.PUSH, msg.key, msg.iteration, self._priority(meta),
                encode_array(acc))

    def _on_reply(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is not WireKind.PULL_RESP:
            raise self._unexpected(conn, msg)
        # The root answered the group's contribution: every member gets
        # the round's value, at the priority the root gave it.
        for worker in self.members:
            self.client_senders[worker].send(
                WireKind.PULL_RESP, msg.key, msg.iteration, msg.priority,
                msg.payload)
