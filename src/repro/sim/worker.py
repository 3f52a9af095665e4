"""Simulated training worker.

Models one machine's training process: a strictly sequential compute
timeline (forward layer by layer, then backward in reverse) interleaved
with the synchronization protocol chosen by the strategy:

* when a layer's backward segment completes, that layer's gradient keys
  are handed to the NIC TX queue (aggressive sync — all strategies);
* a forward layer of the *next* iteration cannot start until every one
  of that layer's keys has come back from the servers — this is the
  consumption-side dependency P3 exploits (Figure 1 of the paper).

The worker is intentionally oblivious to queue disciplines: priority
vs. FIFO lives entirely in the NIC channels and the server work queue.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from ..obs.events import EventKind
from .network import Message, MsgKind, Role
from .trace import IterationRecord

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterSim

# Hot-path constants: module-level bindings skip the ``MsgKind.<member>``
# attribute lookup on every sent and delivered message.
_PUSH = MsgKind.PUSH
_PARAM = MsgKind.PARAM
_NOTIFY = MsgKind.NOTIFY
_ACK = MsgKind.ACK


class SimWorker:
    """State machine for one worker's compute/communication timeline."""

    def __init__(self, ctx: "ClusterSim", worker_id: int) -> None:
        self.ctx = ctx
        self.wid = worker_id
        self.machine = worker_id
        model = ctx.model
        scale = ctx.config.compute_scale
        # Plain lists of floats, not numpy arrays: these are indexed one
        # element at a time per compute segment / PARAM / NOTIFY event,
        # where ndarray scalar access costs several times a list index.
        # float() of a float64 is exact, so durations are bit-identical.
        self.fwd_times = [float(t) for t in model.forward_times(scale)]
        self.bwd_times = [float(t) for t in model.backward_times(scale)]
        self.n_layers = model.n_layers
        self.keys_by_layer = ctx.keys_by_layer
        self.keys_per_layer = [len(k) for k in self.keys_by_layer]
        # Hot-path bindings and per-key precomputation (immutable
        # strategy/placement state resolved once).
        self._after = ctx.sim.after
        self._transport = ctx.transport
        self._fwd_cb = self._forward_layer_done
        self._bwd_cb = self._backward_layer_done
        self._push_payload = ctx.push_payload
        if ctx.two_tier:
            # Two-tier topology: every push/pull goes to this worker's
            # group aggregator, which combines and forwards upstream.
            agg_machine = ctx.aggregator_machine(ctx.group_of[worker_id])
            self._server_machine = {k: agg_machine for k in ctx.keys}
            self._push_role = Role.AGGREGATOR
        else:
            self._server_machine = ctx.key_server_machine
            self._push_role = Role.SERVER
        self._key_layer = ctx.key_layer

        self.iteration = 0
        self.target_iterations = 0
        self.done = False
        # Keys received for the in-flight sync round of each layer.  The
        # first forward pass consumes the initial parameter broadcast,
        # which we treat as already complete.
        self.params_arrived = list(self.keys_per_layer)
        # MXNet only issues a layer's pull requests once notifications
        # for ALL of its keys arrived (Section 4.2 — the behaviour P3
        # removed); track notify counts per layer.
        self.notifies_arrived = [0] * self.n_layers
        # ByteScheduler-style credit flow control: at most
        # ``credit_slices`` pushed-but-unacknowledged keys in flight.
        self.credit = ctx.strategy.credit_slices
        self._outstanding = 0
        self._push_backlog: list = []  # heap of (priority, seq, PlacedKey)
        self._push_seq = 0
        self.fwd_layer = 0
        self.bwd_layer = -1
        self.waiting_forward = False
        self._jitter_mult = 1.0
        # Straggler faults (repro.sim.faults) multiply compute durations
        # while active.  Applied at segment-schedule time: a fault that
        # begins mid-layer slows the *next* layer, matching the
        # layer-granular compute timeline.
        self.fault_slowdown = 1.0
        self._rng = np.random.default_rng(ctx.config.seed * 7919 + worker_id + 1)
        self._record: IterationRecord | None = None
        # Iteration-boundary hook (warm-start cycle marks); None on the
        # normal path.
        self._cycle_hook = ctx.cycle_hook
        # Observability (repro.obs): pure emission, never scheduling.
        self._obs = ctx.obs
        self._gate_block_start = 0.0
        if self._obs is not None:
            self._gate_wait_hist = self._obs.registry.histogram(
                "worker.gate_wait_s")
            self._enqueued_counter = self._obs.registry.counter(
                "worker.slices_enqueued")

    # ------------------------------------------------------------------
    # Iteration lifecycle
    # ------------------------------------------------------------------
    def start(self, target_iterations: int) -> None:
        self.target_iterations = target_iterations
        self._begin_iteration()

    def _begin_iteration(self) -> None:
        now = self.ctx.sim.now
        hook = self._cycle_hook
        if hook is not None:
            hook(self.wid, self.iteration, now)
        if self._record is not None:
            self._record.end = now
            self.ctx.iterations.add(self._record)
        if self.iteration >= self.target_iterations:
            self.done = True
            self.ctx.on_worker_done(self.wid)
            return
        sigma = self.ctx.model.jitter_sigma
        jitter = float(np.exp(self._rng.normal(0.0, sigma))) if sigma > 0 else 1.0
        self._jitter_mult = jitter * self.ctx.config.straggler_factor(self.wid)
        self._record = IterationRecord(
            worker=self.wid, iteration=self.iteration,
            forward_start=now, backward_start=-1.0, backward_end=-1.0, end=-1.0,
        )
        self.fwd_layer = 0
        self._try_forward_layer()

    # ------------------------------------------------------------------
    # Forward pass: consumes parameters in layer order
    # ------------------------------------------------------------------
    def _try_forward_layer(self) -> None:
        i = self.fwd_layer
        if self.params_arrived[i] < self.keys_per_layer[i]:
            if not self.waiting_forward:
                self._gate_block_start = self.ctx.sim.now
            self.waiting_forward = True
            return
        if self._obs is not None:
            now = self.ctx.sim.now
            waited = now - self._gate_block_start if self.waiting_forward else 0.0
            self._gate_wait_hist.observe(waited)
            self._obs.recorder.emit(
                EventKind.FORWARD_GATE_OPEN, node=f"worker{self.wid}",
                ts=now, iteration=self.iteration, layer=i, queue_s=waited)
        self.waiting_forward = False
        dur = self.fwd_times[i] * self._jitter_mult * self.fault_slowdown
        self._after(dur, self._fwd_cb)

    def _forward_layer_done(self) -> None:
        self.fwd_layer += 1
        if self.fwd_layer >= self.n_layers:
            self._begin_backward()
        else:
            self._try_forward_layer()

    # ------------------------------------------------------------------
    # Backward pass: produces gradients in reverse layer order
    # ------------------------------------------------------------------
    def _begin_backward(self) -> None:
        assert self._record is not None
        self._record.backward_start = self.ctx.sim.now
        self.bwd_layer = self.n_layers - 1
        dur = self.bwd_times[self.bwd_layer] * self._jitter_mult * self.fault_slowdown
        self._after(dur, self._bwd_cb)

    def _backward_layer_done(self) -> None:
        i = self.bwd_layer
        # This layer's sync round begins now: reset its arrival counter
        # and push all of its gradient keys.
        self.params_arrived[i] = 0
        self._push_layer(i)
        self.bwd_layer -= 1
        if self.bwd_layer >= 0:
            dur = self.bwd_times[self.bwd_layer] * self._jitter_mult * self.fault_slowdown
            self._after(dur, self._bwd_cb)
        else:
            self._finish_backward()

    def _finish_backward(self) -> None:
        assert self._record is not None
        self._record.backward_end = self.ctx.sim.now
        if self.ctx.deferred_pull:
            # TensorFlow-style: pull requests are part of the *next*
            # graph execution, issued together once this one finishes.
            for layer_keys in self.keys_by_layer:
                for pk in layer_keys:
                    self._send_pull(pk)
        self.iteration += 1
        self._begin_iteration()

    # ------------------------------------------------------------------
    # Protocol messages
    # ------------------------------------------------------------------
    def _push_layer(self, layer: int) -> None:
        if self.credit is None:
            self._send_pushes(self.keys_by_layer[layer])
            return
        for pk in self.keys_by_layer[layer]:
            heapq.heappush(self._push_backlog,
                           (pk.priority, self._push_seq, pk))
            self._push_seq += 1
        self._drain_credit()

    def _drain_credit(self) -> None:
        backlog = self._push_backlog
        while backlog and self._outstanding < self.credit:
            self._outstanding += 1
            self._send_pushes((heapq.heappop(backlog)[2],))

    def _send_pushes(self, pks) -> None:
        """Hand each key's gradient slice to the transport, in order."""
        transport = self._transport
        payloads = self._push_payload
        dst = self._server_machine
        machine = self.machine
        role = self._push_role
        wid = self.wid
        obs = self._obs
        for pk in pks:
            key = pk.key
            payload = payloads[key]
            if obs is not None:
                self._enqueued_counter.inc()
                obs.recorder.emit(
                    EventKind.SLICE_ENQUEUED, node=f"worker{wid}",
                    ts=self.ctx.sim.now, key=key, iteration=self.iteration,
                    priority=pk.priority, layer=pk.layer_index,
                    nbytes=payload)
            transport.send(Message(_PUSH, key, payload, pk.priority, machine,
                                   dst[key], role, wid))

    def _send_pull(self, pk) -> None:
        key = pk.key
        self._transport.send(Message(
            MsgKind.PULL_REQ, key, 0, pk.priority, self.machine,
            self._server_machine[key], self._push_role, self.wid,
        ))

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind is _PARAM:
            self._on_param(msg)
        elif kind is _NOTIFY:
            self._on_notify(msg)
        elif kind is _ACK:
            # Credit flow control: the server received our push.
            self._outstanding -= 1
            self._drain_credit()
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"worker received unexpected {msg}")

    def _on_notify(self, msg: Message) -> None:
        """Baseline KVStore: pull a layer only once every one of its
        keys has been notified (the coupling P3's broadcast removes)."""
        layer = self._key_layer[msg.key]
        arrived = self.notifies_arrived
        n = arrived[layer] + 1
        if n >= self.keys_per_layer[layer]:
            arrived[layer] = 0
            for pk in self.keys_by_layer[layer]:
                self._send_pull(pk)
        else:
            arrived[layer] = n

    def _on_param(self, msg: Message) -> None:
        layer = self._key_layer[msg.key]
        arrived = self.params_arrived
        n = arrived[layer] + 1
        arrived[layer] = n
        if (
            self.waiting_forward
            and not self.done
            and self.fwd_layer == layer
            and n >= self.keys_per_layer[layer]
        ):
            self._try_forward_layer()
