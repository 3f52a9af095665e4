"""Asyncio training worker (repro.live.aio).

A :class:`~repro.live.aio.node.Node` showing only its dial face.
Gated forward (layer *i* waits only on its own parameters), real
gradients, backward emission last-layer-first at P3 or FIFO priorities
— as coroutines, so that 64+ workers cohabit one process.  A worker
only ever pushes: the shard answers every contributor of a round the
moment it applies it (the paper's Section 4.2 broadcast), so nothing is
requested.  It dials its shards (or its group's aggregator) once, trains
every round on its own slice of the global batch, gathers the last
round's values and says ``BYE`` at
:data:`~repro.live.transport.BARRIER_PRIORITY`, so the farewell drains
after every push.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...obs.events import EventKind, EventRecorder
from ...placement.keyplan import KeyTable
from ..config import LiveClusterConfig
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
    """One coroutine-hosted training replica."""

    def __init__(self, worker_id: int, cfg: LiveClusterConfig,
                 plan: KeyTable, epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"worker{worker_id}", worker_id,
                         cfg.worker_machine(worker_id), cfg, epoch0, shaper)
        self.wid = worker_id
        self.plan = plan
        self.net = cfg.build_network()
        self.dataset = cfg.build_dataset()
        self.batches = cfg.batch_schedule()
        # This worker's slice of every global batch.
        self._batch = slice(worker_id * cfg.worker_batch,
                            (worker_id + 1) * cfg.worker_batch)
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
        self.iter_starts: List[float] = []
        self.iter_end: float = 0.0
        self.recorder = (EventRecorder("live", clock=time.monotonic)
                         if cfg.observe else None)

    # ------------------------------------------------------------------
    # Receive path (synchronous, called by read tasks)
    # ------------------------------------------------------------------
    def _on_reply(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is not WireKind.PULL_RESP:
            raise self._unexpected(conn, msg)
        # Read-only: _gather_layer copies it into the parameters.
        self._pulled[(msg.key, msg.iteration)] = msg.view()
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
    # Training loop
    # ------------------------------------------------------------------
    async def run(self, addresses: List[Tuple[str, int]]
                  ) -> Dict[str, np.ndarray]:
        """Train every round, gather the last; return final params."""
        cfg = self.cfg
        params = {name: np.asarray(v, dtype=np.float64).ravel().copy()
                  for name, v in self.net.parameters().items()}
        try:
            await self.dial_peers(addresses, self._peer_machine)
            try:
                for t in range(cfg.iterations):
                    await self._iteration(params, t)
                for layer in range(len(self.names)):
                    await self._gather_layer(params, layer,
                                             cfg.iterations - 1)
            except BaseException as exc:
                # Died mid-run: fail as any node does — record why (the
                # driver may look before this task ends) and hang up.  A
                # BYE would tell the shards this worker finished.
                super()._fail(f"{type(exc).__name__}: {exc}")
                raise
            # BYE rides at barrier priority: it drains after every push.
            for conn in self.conns:
                try:
                    conn.sender.send(WireKind.BYE, 0, 0, BARRIER_PRIORITY)
                except TransportError:
                    pass  # a failed sender: its shard fails on the missing BYE
        finally:
            await self.shutdown(cfg.peer_timeout_s)
        self.iter_end = self._clock()
        return self._shaped(params)

    def _shaped(self, params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {name: params[name].reshape(shape)
                for name, shape in self.shapes.items()}

    async def _iteration(self, params: Dict[str, np.ndarray],
                         t: int) -> None:
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
        xb = self.dataset.x_train[idx][self._batch]
        yb = self.dataset.y_train[idx][self._batch]
        self.net.loss_and_grad(xb, yb)
        grads = {name: np.asarray(g, dtype=np.float64).ravel()
                 for name, g in self.net.gradients().items()}
        # Backward emission: generation order (last layer first).
        for layer in reversed(range(len(self.names))):
            await asyncio.sleep(cfg.bwd_layer_s)
            grad = grads[self.names[layer]]
            for pk in self.plan.by_layer[layer]:
                conn = self.conns[self._route[pk.server]]
                try:
                    conn.sender.send(WireKind.PUSH, pk.key, t,
                                     self._priority(pk),
                                     encode_array(grad[pk.span]))
                except TransportError as exc:  # e.g. a write to it failed
                    raise LiveWorkerError(
                        f"worker {self.wid}: transport to {conn.name} "
                        f"failed: {exc.__cause__ or exc!r}") from exc

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
            "event_rows": (self.recorder.log().rows
                           if self.recorder is not None else []),
        }
