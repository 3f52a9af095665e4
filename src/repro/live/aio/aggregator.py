"""Asyncio intra-group aggregator (two-tier topology, repro.live.aio).

Toward its members it behaves like a shard (listener, heartbeat ACKs,
BYE counting), toward the root shards like a worker (one reliable
prioritized sender per shard with ``sender_id`` = group id, upstream
watchdog).  Member gradients are summed in member-id order, the first
pull of a round is forwarded once and the response cached until the
whole group consumed it — so two-tier runs stay bit-identical to the
in-process grouped store.

Two-tier topologies are static: the aggregator takes no part in the
membership handshake and the driver only instantiates it when
``cfg.two_tier`` is set (the membership layer rejects that combination).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...placement.keyplan import KeyTable, PlacedKey
from ..config import LiveClusterConfig
from ..result import LiveAggregatorError
from ..transport import CONTROL_PRIORITY, TokenBucket, TransportError
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection
from .transport import AsyncPrioritySender, chaos_policy


class AioAggregator(Node):
    """One group's combine/forward node on the event loop."""

    def __init__(self, group_id: int, cfg: LiveClusterConfig,
                 plan: KeyTable, strategy: Optional[str] = None,
                 epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"agg{group_id}")
        self.gid = group_id
        self.cfg = cfg
        self.strategy = strategy or cfg.strategy
        self.epoch0 = epoch0 if epoch0 is not None else time.monotonic()
        self.members = list(cfg.worker_groups()[group_id])
        self._meta = {pk.key: pk for pk in plan}
        # (key, iteration) -> worker -> staged gradient vector
        self._staged: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
        # (key, iteration) -> members whose pulls await the upstream value
        self._pull_waiting: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._resp: Dict[Tuple[int, int], bytes] = {}
        self._resp_served: Dict[Tuple[int, int], Set[int]] = {}
        self._member_senders: Dict[int, AsyncPrioritySender] = {}
        self._up_conns: List[PeerConnection] = []
        self._done = asyncio.Event()
        self.error: Optional[str] = None
        self._byes = 0
        self._fifo_seq = 0
        self.pushes_combined = 0
        self.pulls_forwarded = 0
        self.heartbeats_seen = 0
        if shaper is not None:
            self._shaper = shaper
        else:
            self._shaper = (TokenBucket(cfg.rate_bytes_per_s,
                                        cfg.burst_bytes)
                            if cfg.rate_bytes_per_s is not None else None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, addresses: List[Tuple[str, int]]) -> int:
        """Dial every root shard, then listen for members; return port."""
        machine = self.cfg.aggregator_machine(self.gid)
        for sid, (host, port) in enumerate(addresses):
            conn = await self.dial(
                f"server{sid}", host, port, self.cfg.connect_timeout_s,
                make_sender=lambda writer, sid=sid: AsyncPrioritySender(
                    writer, sender_id=self.gid, shaper=self._shaper,
                    chunk_bytes=self.cfg.chunk_bytes, node=self.name,
                    retry=self.cfg.retry_policy(machine),
                    chaos=chaos_policy(self.cfg.fault_plan, machine,
                                       self.cfg.server_machine(sid),
                                       self.epoch0)),
                on_message=self._on_upstream, on_eof=self._on_up_eof)
            self._up_conns.append(conn)
        self.spawn(self._watchdog())
        return await self.listen(self.cfg.host, self._on_member,
                                 self._sender_for, self._on_member_eof)

    async def run(self) -> None:
        """Serve until every member said BYE, then say BYE upstream."""
        budget = self.cfg.round_timeout_s * self.cfg.iterations
        try:
            await asyncio.wait_for(self._done.wait(), budget)
        except asyncio.TimeoutError:
            self._fail("members never completed")
        if self.error is not None:
            raise LiveAggregatorError(f"aggregator {self.gid}: {self.error}")
        for conn in self._up_conns:
            try:
                conn.sender.send(WireKind.BYE, 0, 0, CONTROL_PRIORITY)
            except TransportError:
                pass
        await self.shutdown(self.cfg.peer_timeout_s)

    def _sender_for(self, conn: PeerConnection,
                    worker: int) -> AsyncPrioritySender:
        if conn.sender is None:
            machine = self.cfg.aggregator_machine(self.gid)
            conn.sender = AsyncPrioritySender(
                conn.writer, sender_id=self.gid, shaper=self._shaper,
                chunk_bytes=self.cfg.chunk_bytes, node=self.name,
                retry=self.cfg.retry_policy(machine),
                chaos=chaos_policy(self.cfg.fault_plan, machine,
                                   self.cfg.worker_machine(worker),
                                   self.epoch0))
            self._member_senders[worker] = conn.sender
        return conn.sender

    def _on_member_eof(self, conn: PeerConnection) -> None:
        if conn.error is not None:
            self._fail(f"member reader failed: {conn.error!r}")
        elif not conn.saw_bye and not self._stopped:
            self._fail("member connection closed without BYE "
                       "— worker died?")

    def _on_up_eof(self, conn: PeerConnection) -> None:
        if conn.error is not None:
            self._fail(f"upstream reader failed: {conn.error!r}")
        elif not self._stopped:
            self._fail(f"{conn.name} closed the upstream connection")

    def _fail(self, reason: str) -> None:
        """A failed aggregator hangs up on members and shards alike, so
        they see EOF at once; :meth:`run` then raises :attr:`error`."""
        if self.error is None:
            self.error = reason
        self._done.set()
        self.abort()

    async def _watchdog(self) -> None:
        """Probe the shards; surface a dead upstream peer loudly."""
        seq = 0
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            now = self._clock()
            for sid, conn in enumerate(self._up_conns):
                if conn.sender.failed:
                    self._fail(f"transport to server {sid} failed: "
                               f"{conn.sender.failure}")
                    return
                stale = now - conn.last_rx
                if stale > self.cfg.peer_timeout_s:
                    self._fail(f"no bytes from server {sid} for "
                               f"{stale:.1f}s — peer dead?")
                    return
                try:
                    conn.sender.send(WireKind.HEARTBEAT, 0, seq,
                                     CONTROL_PRIORITY)
                except TransportError as exc:
                    self._fail(f"heartbeat to server {sid} failed: {exc}")
                    return
            seq += 1

    # ------------------------------------------------------------------
    # Protocol (synchronous handlers)
    # ------------------------------------------------------------------
    def _on_member(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.PUSH:
            self._on_push(msg)
        elif msg.kind is WireKind.PULL_REQ:
            self._on_pull(msg)
        elif msg.kind is WireKind.HEARTBEAT:
            self.heartbeats_seen += 1
            self._sender_for(conn, msg.sender).send(
                WireKind.ACK, msg.key, msg.iteration, CONTROL_PRIORITY)
        elif msg.kind is WireKind.BYE:
            conn.saw_bye = True
            self._byes += 1
            if self._byes >= len(self.members):
                self._done.set()
        else:
            raise LiveAggregatorError(
                f"aggregator {self.gid}: unexpected {msg.kind.name} "
                f"from worker {msg.sender}")

    def _on_upstream(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.PULL_RESP:
            self._on_pull_resp(msg)
        # ACKs answer our heartbeats; nothing to do.

    def _priority(self, meta: PlacedKey) -> int:
        if self.strategy == "p3":
            return meta.priority
        self._fifo_seq += 1
        return self._fifo_seq  # FIFO: priority == enqueue order

    def _on_push(self, msg: WireMessage) -> None:
        meta = self._meta.get(msg.key)
        if meta is None:
            raise KeyError(f"aggregator {self.gid}: unknown key {msg.key}")
        staged = self._staged.setdefault((msg.key, msg.iteration), {})
        if msg.sender in staged:
            raise LiveAggregatorError(
                f"aggregator {self.gid}: worker {msg.sender} "
                f"double-pushed key {msg.key} @ {msg.iteration}")
        staged[msg.sender] = msg.array()
        if len(staged) == len(self.members):
            # Sum in member-id order — the in-process grouped store's
            # accumulation order, hence bit-identical.
            acc = staged[self.members[0]].copy()
            for w in self.members[1:]:
                acc += staged[w]
            del self._staged[(msg.key, msg.iteration)]
            self.pushes_combined += 1
            self._up_conns[meta.server].sender.send(
                WireKind.PUSH, msg.key, msg.iteration, self._priority(meta),
                encode_array(acc))

    def _on_pull(self, msg: WireMessage) -> None:
        meta = self._meta.get(msg.key)
        if meta is None:
            raise KeyError(f"aggregator {self.gid}: unknown key {msg.key}")
        ident = (msg.key, msg.iteration)
        cached = self._resp.get(ident)
        if cached is not None:
            served = self._resp_served[ident]
            served.add(msg.sender)
            if len(served) >= len(self.members):
                del self._resp[ident]
                del self._resp_served[ident]
            self._member_senders[msg.sender].send(
                WireKind.PULL_RESP, msg.key, msg.iteration, msg.priority,
                cached)
            return
        waiting = self._pull_waiting.setdefault(ident, [])
        forward = not waiting
        waiting.append((msg.sender, msg.priority))
        if forward:
            # First member pull of this round: fetch from the root once.
            self.pulls_forwarded += 1
            self._up_conns[meta.server].sender.send(
                WireKind.PULL_REQ, msg.key, msg.iteration, msg.priority)

    def _on_pull_resp(self, msg: WireMessage) -> None:
        ident = (msg.key, msg.iteration)
        waiting = self._pull_waiting.pop(ident, [])
        served = {w for w, _prio in waiting}
        if len(served) < len(self.members):
            # Late pulls hit the cache; evicted once everyone consumed
            # this round's value.
            self._resp[ident] = msg.payload
            self._resp_served[ident] = served
        for worker, priority in waiting:
            self._member_senders[worker].send(
                WireKind.PULL_RESP, msg.key, msg.iteration, priority,
                msg.payload)
