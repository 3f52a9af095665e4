"""Asyncio parameter-server shard (repro.live.aio).

A :class:`~repro.live.aio.node.Node` showing only its listener face.
Stages pushes per (key, round, client) and applies each complete round
with its contributors in id order onto the in-process oracle's own
functional :class:`~repro.kvstore.server.ServerShard` — which is what
makes live rounds bit-identical to
:func:`repro.analysis.calibration.run_inprocess` — one read task per
connection.  The contributors of every round are the shard's clients:
the workers, or the group aggregators under two-tier.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ...kvstore.server import ServerShard
from ...obs.events import EventKind, EventRecorder
from ...placement.keyplan import KeyTable
from ..config import LiveClusterConfig
from ..transport import TokenBucket
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection


class AioServerShard(Node):
    """One shard on the event loop: staging around a ServerShard."""

    def __init__(self, shard_id: int, cfg: LiveClusterConfig,
                 shard: ServerShard, plan: KeyTable,
                 epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"server{shard_id}", shard_id,
                         cfg.server_machine(shard_id), cfg, epoch0, shaper)
        self.sid = shard_id
        self.shard = shard
        self.my_keys = plan.on_server(shard_id)
        self.version: Dict[int, int] = {k: 0 for k in self.my_keys}
        # Who must push for every round, in the application's
        # accumulation order.
        self._contributors = range(cfg.n_server_clients)
        self.pushes_received = 0
        self.recorder = (EventRecorder("live", clock=time.monotonic)
                         if cfg.observe else None)

    async def start(self) -> int:
        """Bind and start serving; return the port."""
        return await self.listen(self.cfg.aggregator_machine
                                 if self.cfg.two_tier
                                 else self.cfg.worker_machine)

    # ------------------------------------------------------------------
    # Message handling (synchronous — called from read tasks)
    # ------------------------------------------------------------------
    def _on_client(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is not WireKind.PUSH:
            raise self._unexpected(conn, msg)
        if msg.key not in self.my_keys:
            raise KeyError(f"shard {self.sid}: key {msg.key} not placed "
                           "here")
        self._stage(msg)
        self.pushes_received += 1
        self._apply_ready(msg.key)

    def _apply_ready(self, key: int) -> None:
        """Apply complete rounds in iteration order, contributors in id
        order — the in-process store's exact accumulation order."""
        contributors = self._contributors
        while True:
            round_idx = self.version[key]
            ready = self._staged.get((key, round_idx))
            if ready is None or len(ready) < len(contributors):
                break
            for client in contributors:
                self.shard.push(client, key, ready[client])
            del self._staged[(key, round_idx)]
            self.version[key] = round_idx + 1
            pk = self.my_keys[key]
            if self.recorder is not None:
                detail = f"contribs={len(contributors)}"
                self.recorder.emit(
                    EventKind.SLICE_APPLIED, node=self.name, key=key,
                    iteration=round_idx, priority=pk.priority,
                    layer=pk.layer_index, nbytes=pk.params * 8,
                    detail=detail)
                self.recorder.emit(
                    EventKind.ROUND_APPLIED, node=self.name, key=key,
                    iteration=round_idx, priority=pk.priority,
                    layer=pk.layer_index, detail=detail)
            # The paper's reply rule (Section 4.2): the update goes back
            # to everyone who contributed the moment it is applied.
            value = encode_array(self.shard.pull(key))
            priority = self._priority(pk)
            for client in contributors:
                self.client_senders[client].send(
                    WireKind.PULL_RESP, key, round_idx, priority, value)
