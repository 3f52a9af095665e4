"""Asyncio training worker (repro.live.aio).

A :class:`~repro.live.aio.node.Node` showing only its dial face.
Gated forward (layer *i* waits only on its own parameters), real
gradients, backward emission last-layer-first at P3 or FIFO priorities
— as coroutines, so that 64+ workers cohabit one process.  A worker
only ever pushes: the shard answers every contributor of a round the
moment it applies it (the paper's Section 4.2 broadcast), so nothing is
requested.  Plus the **elastic membership** choreography:

* A worker executes each of its schedule *spans* as a fresh
  **incarnation**: new connections, fresh transport state.  Rejoining
  after a leave is just another incarnation.
* At the top of every epoch it is active in, the worker sends ``JOIN``
  at :data:`~repro.live.transport.BARRIER_PRIORITY` to every shard —
  guaranteed to drain *after* all of its earlier-epoch data — then gates
  on an ``EPOCH`` ack from every shard before emitting any round of the
  new epoch.
* A mid-run joiner is sent every key at the epoch's predecessor round by
  the shards as they commit the epoch; the normal gated forward then
  proceeds as if the worker had been there all along.
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
from ...placement.keyplan import KeyTable
from ..config import LiveClusterConfig
from ..membership import MembershipSchedule
from ..transport import (
    BARRIER_PRIORITY,
    ChunkRecord,
    TokenBucket,
    TransportError,
)
from ..result import LiveWorkerError
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection


class AioWorker(Node):
    """One coroutine-hosted training replica with elastic membership."""

    def __init__(self, worker_id: int, cfg: LiveClusterConfig,
                 plans: List[KeyTable], schedule: MembershipSchedule,
                 epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"worker{worker_id}", worker_id,
                         cfg.worker_machine(worker_id), cfg, epoch0, shaper)
        self.wid = worker_id
        self.plans = plans
        self.schedule = schedule
        self.net = cfg.build_network()
        self.dataset = cfg.build_dataset()
        self.batches = cfg.batch_schedule()
        # Key geometry (layers/spans/priorities) is epoch-invariant; only
        # the server column moves.  Plan 0 serves for gathers.
        self.plan = plans[0]
        self.shapes = {name: value.shape  # forward order
                       for name, value in self.net.parameters().items()}
        self.names = list(self.shapes)
        if cfg.two_tier:  # one peer for every key: the group's aggregator
            agg = cfg.aggregator_machine(cfg.group_of(worker_id))
            self._route = [0] * cfg.n_servers
            self._peer_machine = lambda _i: agg
        else:
            self._route = list(range(cfg.n_servers))
            self._peer_machine = cfg.server_machine
        # Inbox of reassembled parameter slices: (key, iteration) -> vector
        self._pulled: Dict[Tuple[int, int], np.ndarray] = {}
        self._epoch_acks: Dict[int, Set[int]] = {}
        self._conns: List[PeerConnection] = []  # this incarnation's
        self.iter_starts: List[float] = []
        self.iter_end: float = 0.0
        self.recorder = (EventRecorder("live", clock=time.monotonic)
                         if cfg.observe else None)

    # ------------------------------------------------------------------
    # Receive path (synchronous, called by read tasks)
    # ------------------------------------------------------------------
    def _on_reply(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.PULL_RESP:
            # Read-only: _gather_layer copies it into the parameters.
            self._pulled[(msg.key, msg.iteration)] = msg.view()
        elif msg.kind is WireKind.EPOCH:
            self._epoch_acks.setdefault(msg.key, set()).add(msg.sender)
        else:
            raise self._unexpected(conn, msg)
        self._changed.set()

    def _fail(self, reason: str) -> None:
        # The training loop may still be sending: it hangs up at its next
        # wait, which raises this failure (a closed sender would mask it).
        self._record(reason)

    async def _gate(self, ready, what: str) -> float:
        """Await ``ready()``; return seconds waited.  Raises the worker's
        first failure, or a timeout after ``round_timeout_s``."""
        t_enter = self._clock()
        if not await self._wait(ready, self.cfg.round_timeout_s):
            raise LiveWorkerError(
                f"worker {self.wid}: timed out waiting for {what} "
                f"(round_timeout_s={self.cfg.round_timeout_s})")
        if self.error is not None:
            raise LiveWorkerError(f"worker {self.wid}: {self.error} "
                                  f"(while waiting for {what})")
        return self._clock() - t_enter

    # ------------------------------------------------------------------
    # Connections (one incarnation = one span)
    # ------------------------------------------------------------------
    async def _disconnect(self, leave_epoch: Optional[int]) -> None:
        """End an incarnation: optional LEAVE, then BYE, flush, close.

        Both tokens ride at barrier priority so they drain after every
        data frame of the span — the server's proof our traffic landed.
        """
        if self._wd_task is not None:
            self._wd_task.cancel()
            await asyncio.wait({self._wd_task})  # our own cancel() propagates
            self._wd_task = None
        for conn in self._conns:
            if self.error is not None:
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
                self._conns = await self.dial_peers(addresses,
                                                    self._peer_machine)
                leaves = (e1 if e1 + 1 < self.schedule.n_epochs else None)
                try:
                    await self._run_span(params, e0, e1)
                except BaseException as exc:
                    # Died mid-span: fail as any node does — record why
                    # (the driver may look before this task ends) and
                    # hang up.  A LEAVE/BYE would certify to the shards
                    # that this worker's traffic drained.
                    super()._fail(f"{type(exc).__name__}: {exc}")
                    raise
                await self._disconnect(leaves)  # aborts after a failure
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
                await self._gate(
                    lambda: len(self._epoch_acks.get(e, ()))
                    >= cfg.n_servers,
                    f"EPOCH({e}) from all {cfg.n_servers} shards")
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
                self._conns[self._route[pk.server]].sender.send(
                    WireKind.PUSH, pk.key, t, self._priority(pk),
                    encode_array(grad[pk.span]))

    async def _gather_layer(self, params: Dict[str, np.ndarray], layer: int,
                            iteration: int) -> float:
        """Await every slice of the layer's round; splice in.  Returns
        the seconds spent waiting (the forward gate's stall)."""
        keys = self.plan.by_layer[layer]
        waited = await self._gate(
            lambda: all((pk.key, iteration) in self._pulled for pk in keys),
            f"keys {[pk.key for pk in keys]} @ round {iteration}")
        flat = params[self.names[layer]]
        for pk in keys:
            flat[pk.span] = self._pulled.pop((pk.key, iteration))
        return waited

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def iteration_times(self) -> np.ndarray:
        """Per-iteration durations (final-gather end closes the last)."""
        stamps = self.iter_starts + [self.iter_end]
        return np.diff(np.array(stamps))

    def timeline(self) -> List[ChunkRecord]:
        out: List[ChunkRecord] = []
        for conn in self.conns:  # all dialled: each has its sender
            out.extend(conn.sender.timeline)
        return sorted(out, key=lambda r: r.start)

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
