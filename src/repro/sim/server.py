"""Simulated parameter-server shard (KVServer / P3Server).

One shard per hosting machine.  A shard:

1. collects gradient pushes for each of its keys (all W workers under
   synchronous SGD; every individual push under ASGD);
2. runs aggregation + SGD update jobs through a single consumer —
   FIFO for KVServer, priority-ordered for P3Server (Section 4.2's
   receiver-side producer/consumer queue);
3. returns parameters per the strategy's pull policy: immediate
   broadcast (P3 — the paper removed notify/pull round trips), notify
   then explicit pull (MXNet KVStore), or deferred pull (TensorFlow).
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from ..obs.events import EventKind
from ..strategies.base import PullPolicy
from .network import Message, MsgKind, Role

if TYPE_CHECKING:  # pragma: no cover
    from ..placement.keyplan import PlacedKey
    from .cluster import ClusterSim

# Hot-path constants: module-level bindings skip the ``MsgKind.<member>``
# attribute lookup on every delivered and sent message.
_PUSH = MsgKind.PUSH
_PULL_REQ = MsgKind.PULL_REQ
_PARAM = MsgKind.PARAM
_NOTIFY = MsgKind.NOTIFY
_ACK = MsgKind.ACK
# The kind strings of the rows an observed shard records.
_APPLIED = EventKind.SLICE_APPLIED.value
_ROUND_APPLIED = EventKind.ROUND_APPLIED.value


class SimServerShard:
    """State machine for one PS shard's aggregation/update pipeline."""

    def __init__(self, ctx: "ClusterSim", server_id: int) -> None:
        self.sid = server_id
        # Under the two-tier topology the shard's clients are the group
        # aggregators, not the workers: rounds complete after n_groups
        # combined pushes and replies fan back through the aggregators.
        self._init_pipeline(
            ctx, f"server{server_id}", ctx.server_machine(server_id),
            ctx.keys_by_server[server_id], ctx.clients, ctx.client_machines,
            Role.AGGREGATOR if ctx.two_tier else Role.WORKER)
        # Observability (repro.obs): pure emission, never scheduling.
        self._obs = ctx.obs
        if self._obs is not None:
            self._update_hist = self._obs.registry.histogram("server.update_s")
            self._applied_counter = self._obs.registry.counter(
                "server.updates_applied")
            self._rounds_counter = self._obs.registry.counter(
                "server.rounds_applied")
            self._obs_emit = self._obs.recorder.sink()

    def _init_pipeline(self, ctx: "ClusterSim", name: str, machine: int,
                       keys: Dict[int, "PlacedKey"], clients: List[int],
                       client_machine: Union[List[int], Dict[int, int]],
                       client_role: Role) -> None:
        """Everything a node needs to count pushes from its clients, run
        one timed job per complete round and reply: its ``keys``, its
        client ids and, indexed by client id, the machine that client's
        replies go to.  The two-tier aggregator builds the same pipeline
        facing its group's members
        (:class:`repro.sim.aggregator.SimAggregator`)."""
        self.ctx = ctx
        self.name = name
        self.machine = machine
        self.keys = keys
        self.push_count: Dict[int, int] = {k: 0 for k in self.keys}
        # Parked-pull bookkeeping: which clients' pulls wait for the
        # round's value (in arrival order), whether that value is here,
        # and how many clients consumed it.
        self.pulls_waiting: Dict[int, List[int]] = {k: [] for k in self.keys}
        self.params_available: Dict[int, bool] = {k: False for k in self.keys}
        self.replies_sent: Dict[int, int] = {k: 0 for k in self.keys}

        self.busy = False
        # ------------------------------------------------------------------
        # Hot-path bindings and precomputation.  Everything below is
        # derived once from immutable strategy/config state; per-message
        # handlers then run on local lookups only.
        # ------------------------------------------------------------------
        self._after = ctx.sim.after
        self._transport = ctx.transport
        self._job_done_cb = self._job_done
        self._credit = ctx.strategy.credit_slices is not None
        self._async = ctx.strategy.async_updates
        self._pull_policy = ctx.strategy.pull_policy
        self._n_clients = len(clients)
        # Shared recipients list for full synchronous rounds: dispatch
        # only ever iterates it, so one list serves every round.
        self._all_recipients = clients
        self._recipient_machine = client_machine
        self._recipient_role = client_role
        self._update_rate = ctx.config.update_bytes_per_s
        self._per_update = ctx.config.per_update_s
        ps = ctx.strategy.param_scale
        self._param_payload = {k: max(1, int(pk.bytes * ps))
                               for k, pk in self.keys.items()}
        self._key_priority = {k: pk.priority for k, pk in self.keys.items()}
        self._key_bytes = {k: pk.bytes for k, pk in self.keys.items()}
        # One work queue for both disciplines, a heap ordered by
        # (priority, arrival): FIFO is every key at the same priority.
        # `_queue_pop` stays an instance attribute (the invariant
        # harness wraps it per instance).
        heap: List[Tuple[int, int, int, List[int], int]] = []
        prio = (self._key_priority if ctx.strategy.prioritized
                else dict.fromkeys(self.keys, 0))

        def _qpush(key: int, recipients: List[int], n_contribs: int,
                   _push=heapq.heappush, _heap=heap, _prio=prio,
                   _next=itertools.count().__next__) -> None:
            _push(_heap, (_prio[key], _next(), key, recipients, n_contribs))

        def _qpop(_pop=heapq.heappop, _heap=heap):
            return _pop(_heap)[2:]

        self._queue_push = _qpush
        self._queue_pop = _qpop
        self._queue_backing = heap
        self.updates_done = 0
        self.update_busy_time = 0.0
        # Stall-fault support (repro.sim.faults): while the pause count
        # is positive the consumer starts no new update jobs; pushes keep
        # arriving and back up the work queue.  The job already running
        # when the stall begins finishes normally — the fault models a
        # wedged consumer thread, not a killed one.
        self._pause_count = 0

    def release(self) -> None:
        """Drop the edges back into the cluster's cycle — ``ctx`` and the
        cached bound ``_job_done`` — once the run is over
        (:meth:`ClusterSim.release`).  Keys, counters and the work queue
        stay readable."""
        self.ctx = None
        self._job_done_cb = None

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    @property
    def paused(self) -> bool:
        return self._pause_count > 0

    def pause(self) -> None:
        """Stop starting new aggregation/update jobs (nestable)."""
        self._pause_count += 1

    def resume(self) -> None:
        """Undo one :meth:`pause`; drains the backlog when unpaused."""
        if self._pause_count <= 0:
            raise RuntimeError(f"{self.name} resumed while not paused")
        self._pause_count -= 1
        if not self.paused and not self.busy and self._queue_len() > 0:
            self._next_job()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind is _PUSH:
            self._on_push(msg)
        elif kind is _PULL_REQ:
            self._on_pull(msg)
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"{self.name} received unexpected {msg}")

    def _on_push(self, msg: Message) -> None:
        key = msg.key
        if key not in self.keys:  # pragma: no cover - placement bug guard
            raise RuntimeError(f"key {key} pushed to wrong node {self.name}")
        if self._credit:
            # Credit flow control acknowledges *receipt* (transport
            # level), never aggregation: an update-level ack would
            # deadlock — a worker's credit window can fill with keys its
            # peers have reprioritized behind their own windows.
            self._reply(_ACK, key, (msg.sender_worker,))
        if self._async:
            # ASGD: apply this worker's gradient immediately; only the
            # pushing worker gets fresh parameters back.
            self._enqueue_job(key, [msg.sender_worker], n_contribs=1)
            return
        counts = self.push_count
        n = counts[key] + 1
        if n == self._n_clients:
            counts[key] = 0
            self._enqueue_job(key, self._all_recipients,
                              n_contribs=self._n_clients)
        else:
            counts[key] = n

    def _on_pull(self, msg: Message) -> None:
        policy = self._pull_policy
        if policy is PullPolicy.NOTIFY_PULL or self._async:
            # The worker only pulls after our notify, so the update is
            # guaranteed complete: reply immediately.
            self._reply(_PARAM, msg.key, (msg.sender_worker,))
        elif policy is PullPolicy.DEFERRED_PULL:
            self._serve_or_park(msg.key, msg.sender_worker)
        else:  # pragma: no cover - broadcast strategies never pull
            raise RuntimeError(f"unexpected pull under {policy}")

    # ------------------------------------------------------------------
    # Update pipeline (the single consumer thread of Section 4.2)
    # ------------------------------------------------------------------
    def _enqueue_job(self, key: int, recipients: List[int], n_contribs: int) -> None:
        self._queue_push(key, recipients, n_contribs)
        if not self.busy and not self._pause_count:
            self._next_job()

    def _queue_len(self) -> int:
        return len(self._queue_backing)

    def _next_job(self) -> None:
        key, recipients, n_contribs = self._queue_pop()
        self.busy = True
        dur = (self._key_bytes[key] * n_contribs / self._update_rate
               + self._per_update)
        self.update_busy_time += dur
        self._after(dur, self._job_done_cb, key, recipients, n_contribs)

    def _job_done(self, key: int, recipients: List[int],
                  n_contribs: int) -> None:
        self.busy = False
        self.updates_done += 1
        self._publish(key, recipients, n_contribs)
        if self._queue_backing and not self._pause_count:
            self._next_job()

    def _publish(self, key: int, recipients: List[int],
                 n_contribs: int) -> None:
        """What a finished job means.  On a shard: the update is applied,
        so its parameters go back to the clients."""
        if self._obs is not None:
            pk = self.keys[key]
            now = float(self.ctx.sim.now)
            node = self.name
            dur = (pk.bytes * n_contribs / self.ctx.config.update_bytes_per_s
                   + self.ctx.config.per_update_s)
            self._update_hist.observe(dur)
            self._applied_counter.inc()
            detail = f"contribs={n_contribs}"
            self._obs_emit((now, node, _APPLIED, key, -1, pk.priority,
                            pk.layer_index, pk.bytes, 0.0, dur, detail))
            if n_contribs >= self._n_clients:
                # A full synchronous round of this key is now applied.
                self._rounds_counter.inc()
                self._obs_emit((now, node, _ROUND_APPLIED, key, -1,
                                pk.priority, pk.layer_index, 0, 0.0, 0.0,
                                detail))
        self._dispatch(key, recipients)

    # ------------------------------------------------------------------
    # Returning parameters
    # ------------------------------------------------------------------
    def _dispatch(self, key: int, recipients: List[int]) -> None:
        policy = self._pull_policy
        if self._async or policy is PullPolicy.BROADCAST:
            # ASGD replies directly to the pushing worker.
            self._reply(_PARAM, key, recipients)
        elif policy is PullPolicy.NOTIFY_PULL:
            self._reply(_NOTIFY, key, recipients)
        elif policy is PullPolicy.DEFERRED_PULL:
            # A shard answers the pulls that outran the update in
            # client-id order.
            self.pulls_waiting[key].sort()
            self._release_pulls(key)

    def _serve_or_park(self, key: int, worker: int) -> None:
        """A pull that may outrun its round's value waits for it."""
        if self.params_available[key]:
            self._reply_deferred(key, worker)
        else:
            self.pulls_waiting[key].append(worker)

    def _release_pulls(self, key: int) -> None:
        """The round's value is here: answer the parked pulls and keep
        it for the late ones."""
        self.params_available[key] = True
        waiting = self.pulls_waiting[key]
        for w in waiting:
            self._reply_deferred(key, w)
        waiting.clear()

    def _reply_deferred(self, key: int, worker: int) -> None:
        self._reply(_PARAM, key, (worker,))
        self.replies_sent[key] += 1
        if self.replies_sent[key] >= self._n_clients:
            # Every client consumed this round; next round starts clean.
            self.params_available[key] = False
            self.replies_sent[key] = 0

    def _reply(self, kind: MsgKind, key: int, clients) -> None:
        """One ``kind`` message about ``key`` to each of ``clients``: a
        PARAM carries the key's parameters, an ACK or NOTIFY nothing.
        A client id is a worker id on a flat shard and on an
        aggregator, a group id on a two-tier root shard."""
        transport = self._transport
        payload = self._param_payload[key] if kind is _PARAM else 0
        priority = self._key_priority[key]
        machine = self.machine
        to = self._recipient_machine
        role = self._recipient_role
        for client in clients:
            # Positional: the dataclass __init__ binds positional
            # arguments measurably faster than keywords.
            transport.send(Message(kind, key, payload, priority, machine,
                                   to[client], role))
