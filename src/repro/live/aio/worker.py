"""Asyncio training worker (repro.live.aio).

Gated forward (layer *i* waits only on its own parameters), real
gradients, backward emission last-layer-first at P3 or FIFO priorities
— as coroutines, so that 64+ workers cohabit one process — plus the
**elastic membership** choreography:

* A worker executes each of its schedule *spans* as a fresh
  **incarnation**: new connections, fresh transport state.  Rejoining
  after a leave is just another incarnation.
* At the top of every epoch it is active in, the worker sends ``JOIN``
  at :data:`~repro.live.transport.BARRIER_PRIORITY` to every shard —
  guaranteed to drain *after* all of its earlier-epoch data — then gates
  on an ``EPOCH`` ack from every shard before emitting any round of the
  new epoch.
* A mid-run joiner bootstraps its replica by pulling every key at the
  epoch's predecessor round; the normal gated forward then proceeds as
  if the worker had been there all along.
* A departing worker sends ``LEAVE`` then ``BYE``, both at barrier
  priority, so the shards can prove its traffic drained before
  migrating keys.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...obs.events import EventKind, EventRecorder
from ...placement.keyplan import KeyTable, PlacedKey
from ..config import LiveClusterConfig
from ..membership import MembershipSchedule
from ..transport import (
    BARRIER_PRIORITY,
    CONTROL_PRIORITY,
    ChunkRecord,
    TokenBucket,
    TransportError,
)
from ..result import LiveWorkerError
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection
from .transport import AsyncPrioritySender, chaos_policy


class AioWorker(Node):
    """One coroutine-hosted training replica with elastic membership."""

    def __init__(self, worker_id: int, cfg: LiveClusterConfig,
                 plans: List[KeyTable], schedule: MembershipSchedule,
                 strategy: Optional[str] = None,
                 epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"worker{worker_id}")
        self.wid = worker_id
        self.cfg = cfg
        self.strategy = strategy or cfg.strategy
        self.epoch0 = epoch0 if epoch0 is not None else time.monotonic()
        self.plans = plans
        self.schedule = schedule
        self.net = cfg.build_network()
        self.dataset = cfg.build_dataset()
        self.batches = cfg.batch_schedule()
        self._handshake = not cfg.two_tier
        # Key geometry (layers/spans/priorities) is epoch-invariant; only
        # the server column moves.  Plan 0 serves for gathers.
        self.plan = plans[0]
        self.shapes = {name: value.shape  # forward order
                       for name, value in self.net.parameters().items()}
        self.names = list(self.shapes)
        if cfg.two_tier:
            self._route = [0] * cfg.n_servers
        else:
            self._route = list(range(cfg.n_servers))
        # Inbox of reassembled parameter slices: (key, iteration) -> vector
        self._pulled: Dict[Tuple[int, int], np.ndarray] = {}
        self._epoch_acks: Dict[int, Set[int]] = {}
        self._notify = asyncio.Event()
        self._error: Optional[BaseException] = None
        self._acks = 0
        self._fifo_seq = 0
        # One bucket across connections and incarnations: the "NIC".
        # An injected shaper (any object with reserve/refund — e.g. a
        # repro.tenancy TenantShare) replaces the private bucket so many
        # nodes can draw from one fair-shared allocation.
        if shaper is not None:
            self._shaper = shaper
        else:
            self._shaper = (TokenBucket(cfg.rate_bytes_per_s,
                                        cfg.burst_bytes)
                            if cfg.rate_bytes_per_s is not None else None)
        self._conns: List[PeerConnection] = []  # this incarnation's
        self._wd_task: Optional[asyncio.Task] = None
        self.iter_starts: List[float] = []
        self.iter_end: float = 0.0
        self.recorder = (EventRecorder("live", clock=time.monotonic)
                         if cfg.observe else None)

    # ------------------------------------------------------------------
    # Receive path (synchronous, called by read tasks)
    # ------------------------------------------------------------------
    def _on_message(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.PULL_RESP:
            self._pulled[(msg.key, msg.iteration)] = msg.array()
        elif msg.kind is WireKind.ACK:
            self._acks += 1
        elif msg.kind is WireKind.EPOCH:
            self._epoch_acks.setdefault(msg.key, set()).add(msg.sender)
        else:
            self._fail(LiveWorkerError(
                f"worker {self.wid}: unexpected {msg.kind.name} "
                f"from {conn.name}"))
        self._notify.set()

    def _on_eof(self, conn: PeerConnection) -> None:
        if not conn.closed and not self._stopped:
            self._fail(LiveWorkerError(
                f"worker {self.wid}: {conn.name} closed the connection "
                "mid-run" if conn.error is None else
                f"worker {self.wid}: receive path from {conn.name} "
                f"failed: {conn.error!r}"))

    def _fail(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        self._notify.set()

    async def _wait_for(self, pred, what: str) -> float:
        """Await ``pred()`` becoming true; return seconds waited."""
        t_enter = self._clock()
        deadline = t_enter + self.cfg.round_timeout_s
        while True:
            if self._error is not None:
                raise LiveWorkerError(
                    f"worker {self.wid}: receive path failed while "
                    f"waiting for {what}: {self._error}") from self._error
            if pred():
                return self._clock() - t_enter
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise LiveWorkerError(
                    f"worker {self.wid}: timed out waiting for {what} "
                    f"(round_timeout_s={self.cfg.round_timeout_s})")
            self._notify.clear()
            if self._error is not None or pred():
                continue
            try:
                await asyncio.wait_for(self._notify.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # Connections / watchdog (one incarnation = one span)
    # ------------------------------------------------------------------
    async def _connect(self, addresses: List[Tuple[str, int]]) -> None:
        machine = self.cfg.worker_machine(self.wid)
        self._conns = []
        for sid, (host, port) in enumerate(addresses):
            peer = (self.cfg.aggregator_machine(self.cfg.group_of(self.wid))
                    if self.cfg.two_tier else self.cfg.server_machine(sid))
            conn = await self.dial(
                f"server{sid}", host, port, self.cfg.connect_timeout_s,
                make_sender=lambda writer, peer=peer: AsyncPrioritySender(
                    writer, sender_id=self.wid, shaper=self._shaper,
                    chunk_bytes=self.cfg.chunk_bytes,
                    recorder=self.recorder, node=self.name,
                    retry=self.cfg.retry_policy(machine),
                    chaos=chaos_policy(self.cfg.fault_plan, machine, peer,
                                       self.epoch0)),
                on_message=self._on_message, on_eof=self._on_eof)
            self._conns.append(conn)
        self._wd_task = self.spawn(self._watchdog(list(self._conns)))

    async def _watchdog(self, conns: List[PeerConnection]) -> None:
        """Probe liveness; raising fails the worker (:meth:`Node.spawn`)."""
        seq = 0
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            now = self._clock()
            for conn in conns:
                if conn.sender.failed:
                    raise LiveWorkerError(
                        f"worker {self.wid}: transport to {conn.name} "
                        f"failed: {conn.sender.failure}")
                stale = now - conn.last_rx
                if stale > self.cfg.peer_timeout_s:
                    raise LiveWorkerError(
                        f"worker {self.wid}: no bytes from {conn.name} "
                        f"for {stale:.1f}s (peer_timeout_s="
                        f"{self.cfg.peer_timeout_s}) — peer dead?")
                conn.sender.send(WireKind.HEARTBEAT, 0, seq,
                                 CONTROL_PRIORITY)
            seq += 1

    async def _disconnect(self, leave_epoch: Optional[int]) -> None:
        """End an incarnation: optional LEAVE, then BYE, flush, close.

        Both tokens ride at barrier priority so they drain after every
        data frame of the span — the server's proof our traffic landed.
        """
        if self._wd_task is not None:
            self._wd_task.cancel()
            try:
                await self._wd_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._wd_task = None
        for conn in self._conns:
            if self._error is not None:
                conn.abort()  # don't flush a broken span during failure
                continue
            try:
                if leave_epoch is not None and self._handshake:
                    conn.sender.send(WireKind.LEAVE, leave_epoch, 0,
                                     BARRIER_PRIORITY)
                conn.sender.send(WireKind.BYE, 0, 0, BARRIER_PRIORITY)
            except TransportError:
                pass  # never mask the original failure during teardown
            await conn.close(self.cfg.peer_timeout_s)

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    async def run(self, addresses: List[Tuple[str, int]]
                  ) -> Dict[str, np.ndarray]:
        """Execute every span this worker appears in; return final params."""
        cfg = self.cfg
        params = {name: np.asarray(v, dtype=np.float64).ravel().copy()
                  for name, v in self.net.parameters().items()}
        spans = self.schedule.spans(self.wid)
        if not spans:
            raise LiveWorkerError(
                f"worker {self.wid} appears in no epoch of the schedule")
        try:
            for e0, e1 in spans:
                await self._connect(addresses)
                leaves = (e1 if e1 + 1 < self.schedule.n_epochs else None)
                try:
                    await self._run_span(params, e0, e1)
                except BaseException:
                    # Died mid-span: hang up.  A LEAVE/BYE would certify
                    # to the shards that this worker's traffic drained.
                    self.abort()
                    raise
                await self._disconnect(
                    leaves if self._error is None else None)
        finally:
            await self.shutdown(cfg.peer_timeout_s)
        self.iter_end = self._clock()
        return self._shaped(params)

    def _shaped(self, params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {name: params[name].reshape(shape)
                for name, shape in self.shapes.items()}

    async def _run_span(self, params: Dict[str, np.ndarray],
                        e0: int, e1: int) -> None:
        cfg = self.cfg
        for e in range(e0, e1 + 1):
            if self._handshake:
                first = self.schedule.first_round(e)
                for conn in self._conns:
                    conn.sender.send(WireKind.JOIN, e, first,
                                     BARRIER_PRIORITY)
                await self._wait_for(
                    lambda: len(self._epoch_acks.get(e, ()))
                    >= cfg.n_servers,
                    f"EPOCH({e}) from all {cfg.n_servers} shards")
                if e == e0 and first > 0:
                    # Mid-run joiner: bootstrap the replica at the
                    # epoch's predecessor round; the round loop's normal
                    # gather consumes the responses.
                    for pk in self.plans[e]:
                        sender = self._conns[self._route[pk.server]].sender
                        sender.send(WireKind.PULL_REQ, pk.key, first - 1,
                                    self._priority(pk))
            rank = self.schedule.rank_of(e, self.wid)
            n_active = len(self.schedule.active(e))
            per = cfg.batch_size // n_active
            lo, hi = rank * per, (rank + 1) * per
            for t in self.schedule.rounds_of(e):
                await self._iteration(params, e, t, lo, hi)
        # Collect the span's final round before tearing down.
        last = self.schedule.rounds_of(e1)[-1]
        for layer in range(len(self.names)):
            await self._gather_layer(params, layer, last)

    async def _iteration(self, params: Dict[str, np.ndarray], e: int,
                         t: int, lo: int, hi: int) -> None:
        cfg = self.cfg
        self.iter_starts.append(self._clock())
        # Gated forward: consume layer i only once its round-(t-1)
        # parameters landed, then spend its emulated compute time.
        for layer in range(len(self.names)):
            waited = await self._gather_layer(params, layer, t - 1) \
                if t > 0 else 0.0
            if self.recorder is not None:
                self.recorder.emit(
                    EventKind.FORWARD_GATE_OPEN, node=self.name,
                    iteration=t, layer=layer, queue_s=waited)
            await asyncio.sleep(cfg.fwd_layer_s)
        if t > 0:
            self.net.set_parameters(self._shaped(params))
        idx = self.batches[t]
        xb = self.dataset.x_train[idx][lo:hi]
        yb = self.dataset.y_train[idx][lo:hi]
        self.net.loss_and_grad(xb, yb)
        grads = {name: np.asarray(g, dtype=np.float64).ravel()
                 for name, g in self.net.gradients().items()}
        # Backward emission: generation order (last layer first), routed
        # by the *epoch's* plan — the only column that varies is server.
        for layer in reversed(range(len(self.names))):
            await asyncio.sleep(cfg.bwd_layer_s)
            grad = grads[self.names[layer]]
            for pk in self.plans[e].by_layer[layer]:
                prio = self._priority(pk)
                sender = self._conns[self._route[pk.server]].sender
                sender.send(WireKind.PUSH, pk.key, t, prio,
                            encode_array(grad[pk.span]))
                sender.send(WireKind.PULL_REQ, pk.key, t, prio)

    def _priority(self, pk: PlacedKey) -> int:
        if self.strategy == "p3":
            return pk.priority
        self._fifo_seq += 1
        return self._fifo_seq  # FIFO: priority == enqueue order

    async def _gather_layer(self, params: Dict[str, np.ndarray], layer: int,
                            iteration: int) -> float:
        """Await every slice of the layer's round; splice in.  Returns
        the seconds spent waiting (the forward gate's stall)."""
        keys = self.plan.by_layer[layer]
        waited = await self._wait_for(
            lambda: all((pk.key, iteration) in self._pulled for pk in keys),
            f"keys {[pk.key for pk in keys]} @ round {iteration}")
        flat = params[self.names[layer]]
        for pk in keys:
            flat[pk.span] = self._pulled.pop((pk.key, iteration))
        return waited

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def heartbeat_acks(self) -> int:
        return self._acks

    def iteration_times(self) -> np.ndarray:
        """Per-iteration durations (final-gather end closes the last)."""
        stamps = self.iter_starts + [self.iter_end]
        return np.diff(np.array(stamps))

    def timeline(self) -> List[ChunkRecord]:
        out: List[ChunkRecord] = []
        for conn in self.conns:
            if conn.sender is not None:
                out.extend(conn.sender.timeline)
        return sorted(out, key=lambda r: r.start)

    def transport_stats(self) -> Dict[str, int]:
        """Aggregated reliability/chaos counters across incarnations."""
        totals: Dict[str, int] = {}
        for conn in self.conns:
            if conn.sender is not None:
                for name, value in conn.sender.stats().items():
                    totals[name] = totals.get(name, 0) + value
            for name, value in conn.receiver.stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def result(self, final: Dict[str, np.ndarray]) -> Dict[str, object]:
        """The driver-facing record of this worker's run."""
        return {
            "worker": self.wid,
            "params": final,
            "iteration_times": self.iteration_times(),
            "timeline": self.timeline(),
            "heartbeat_acks": self.heartbeat_acks,
            "transport": self.transport_stats(),
            "events": (self.recorder.to_dicts()
                       if self.recorder is not None else []),
        }
