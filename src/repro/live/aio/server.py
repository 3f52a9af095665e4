"""Asyncio parameter-server shard (repro.live.aio).

A :class:`~repro.live.aio.node.Node` showing only its listener face.
Stages pushes per (key, round, worker) and applies each complete round
with its contributors in rank order onto the in-process oracle's own
functional :class:`~repro.kvstore.server.ServerShard` — which is what
makes live rounds bit-identical to it — one read task per connection,
plus the **membership epoch** machinery:

* JOIN/LEAVE barrier tokens feed an :class:`~repro.live.membership.
  EpochTracker`; when every token for the next epoch has arrived *and*
  every earlier round is applied locally, the shard seals at the
  driver's :class:`~repro.live.aio.driver.EpochCoordinator` barrier.
* The last shard to seal migrates re-placed keys (value + momentum +
  round version) between shards, then everyone installs the epoch's key
  plan and active set and sends ``EPOCH`` acks to its workers — the
  green light workers gate their next rounds on.

Because a round's contributor set is the epoch's active workers sorted
by id (ranks), and the shard divides by the active count, every round
is bit-identical to :func:`repro.analysis.calibration.run_inprocess`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...kvstore.server import ServerShard
from ...obs.events import EventKind, EventRecorder
from ...placement.keyplan import KeyTable
from ..config import LiveClusterConfig
from ..membership import EpochTracker, MembershipSchedule
from ..transport import CONTROL_PRIORITY, TokenBucket
from ..wire import WireKind, WireMessage, encode_array
from .node import Node, PeerConnection


class AioServerShard(Node):
    """One shard on the event loop: staging + epochs around a ServerShard."""

    def __init__(self, shard_id: int, cfg: LiveClusterConfig,
                 shard: ServerShard, plans: List[KeyTable],
                 schedule: MembershipSchedule, coordinator,
                 epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        super().__init__(f"server{shard_id}", shard_id,
                         cfg.server_machine(shard_id), cfg, epoch0, shaper)
        self.sid = shard_id
        self.shard = shard
        self.plans = plans
        self.schedule = schedule
        self.coordinator = coordinator
        self.tracker = EpochTracker(schedule)
        self.my_keys = plans[0].on_server(shard_id)
        self.version: Dict[int, int] = {k: 0 for k in self.my_keys}
        self.pushes_received = 0
        self.recorder = (EventRecorder("live", clock=time.monotonic)
                         if cfg.observe else None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind, start serving and (if elastic-capable) tracking epochs."""
        port = await self.listen(self.cfg.aggregator_machine
                                 if self.cfg.two_tier
                                 else self.cfg.worker_machine)
        if self._handshake:
            self.spawn(self._membership_loop())
        return port

    # ------------------------------------------------------------------
    # Message handling (synchronous — called from read tasks)
    # ------------------------------------------------------------------
    def _on_client(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.PUSH:
            self._on_push(msg)
        elif msg.kind is WireKind.JOIN:
            self.tracker.note_join(msg.sender, msg.key)
            self._changed.set()
        elif msg.kind is WireKind.LEAVE:
            self.tracker.note_leave(msg.sender, msg.key)
            self._changed.set()
        else:
            raise self._unexpected(conn, msg)

    def _contributors(self, round_idx: int) -> Tuple[int, ...]:
        """Who must push for ``round_idx`` (workers, or groups under
        two-tier), in the application's accumulation order."""
        if self._handshake:
            return self.schedule.active(self.schedule.round_epoch(round_idx))
        return tuple(range(self.cfg.n_server_clients))

    def rounds_applied(self) -> int:
        """Globally applied rounds on this shard: every owned key is at
        least this far.  A shard owning no keys this epoch is trivially
        caught up."""
        if not self.my_keys:
            return self.schedule.total_rounds
        return min(self.version[k] for k in self.my_keys)

    def _on_push(self, msg: WireMessage) -> None:
        if msg.key not in self.my_keys:
            raise KeyError(f"shard {self.sid}: key {msg.key} not placed "
                           f"here (epoch {self.tracker.current})")
        if (self._handshake and
                self.schedule.round_epoch(msg.iteration)
                > self.tracker.current):
            raise RuntimeError(
                f"shard {self.sid}: push for round {msg.iteration} "
                f"before its epoch committed (current="
                f"{self.tracker.current}) — worker ignored the EPOCH gate")
        self._stage(msg)
        self.pushes_received += 1
        self._apply_ready(msg.key)

    def _apply_ready(self, key: int) -> None:
        """Apply complete rounds in iteration order, contributors in
        rank order — the in-process store's exact accumulation order."""
        while True:
            round_idx = self.version[key]
            contributors = self._contributors(round_idx) \
                if round_idx < self.schedule.total_rounds else ()
            ready = self._staged.get((key, round_idx))
            if not contributors or ready is None \
                    or len(ready) < len(contributors):
                break
            for rank, worker in enumerate(contributors):
                self.shard.push(rank, key, ready[worker])
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
        self._changed.set()  # rounds applied gate the next epoch's commit

    # ------------------------------------------------------------------
    # Membership epochs
    # ------------------------------------------------------------------
    async def _membership_loop(self) -> None:
        """Commit epochs as their barriers clear, greenlighting workers."""
        while not self.tracker.finished:
            epoch = self.tracker.current + 1
            # Unbudgeted: it waits on workers, whose EPOCH gates time out.
            await self._wait(lambda: self.tracker.ready_to_commit(
                epoch, self.rounds_applied()), None)
            if self.error is not None:
                return
            # All shards must quiesce before keys migrate: barrier at
            # the coordinator; the last arriver performs the migration.
            await self.coordinator.seal(self.sid, epoch)
            self._install_epoch(epoch)
            first = self.schedule.first_round(epoch)
            if first > 0:
                # A mid-run joiner contributed to no earlier round, so
                # nothing was sent to it: hand it this shard's keys (the
                # post-migration plan) at the round it starts from.
                for key, pk in self.my_keys.items():
                    value = encode_array(self.shard.pull(key))
                    for worker in self.schedule.joiners(epoch):
                        self.client_senders[worker].send(
                            WireKind.PULL_RESP, key, first - 1,
                            self._priority(pk), value)
            for worker in self.schedule.active(epoch):
                self.client_senders[worker].send(
                    WireKind.EPOCH, epoch, first, CONTROL_PRIORITY)

    def _install_epoch(self, epoch: int) -> None:
        """Adopt the epoch's key plan and active set; commit the tracker."""
        self.my_keys = self.plans[epoch].on_server(self.sid)
        n_active = len(self.schedule.active(epoch))
        self.shard.n_workers = n_active
        self.shard.denominator = n_active
        self.tracker.commit(epoch, self.rounds_applied())

    # Key migration handoff (driver's EpochCoordinator, between seals) —
    def export_live_key(self, key: int) -> Tuple[np.ndarray,
                                                 Optional[np.ndarray], int]:
        """Hand off one key's full live state: value, momentum, version."""
        staged = sorted(r for k, r in self._staged if k == key)
        if staged:
            raise RuntimeError(
                f"shard {self.sid}: key {key} migrating with pending "
                f"traffic (staged={staged}) — "
                "the JOIN/LEAVE barrier should have drained it")
        value, velocity = self.shard.export_key(key)
        return value, velocity, self.version.pop(key)

    def adopt_live_key(self, key: int, value: np.ndarray,
                       velocity: Optional[np.ndarray],
                       version: int) -> None:
        self.shard.adopt_key(key, value, velocity)
        self.version[key] = version

