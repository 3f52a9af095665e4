"""Asyncio transport: the pure scheduling core on async streams.

:class:`AsyncPrioritySender` hosts :mod:`repro.live.transport`'s sans-IO
pieces on an event loop — the :class:`ChunkScheduler` heap, the
:class:`ReliableOutbox` Go-Back-N state, :class:`TokenBucket` shaping,
the v2 wire frames — with one drain task per connection.  That is what
lets a single process carry 64+ workers and hundreds of connections:
each connection costs a task and a heap, not two OS threads
(:class:`~repro.live.transport.PrioritySender` is the thread-hosted
twin of the same core).

Two capabilities the thread-hosted sender does not have:

* **Chaos without a socket** — fault injection reuses
  :meth:`repro.live.chaos.ChaosChannel.plan_frame` (the exact seeded
  draw discipline) with the delay applied as ``await asyncio.sleep``
  and the payloads written to the stream writer.
* **Reconnect** — :meth:`AsyncPrioritySender.rebind` moves the sender
  onto a replacement connection: queued ``CHUNK_ACK``\\ s for the dead
  byte stream are purged, the unacked backlog is renumbered onto the
  fresh seq space (:func:`repro.live.wire.reseq_frame`) and immediately
  retransmitted.  A write failure parks the sender (``broken``) instead
  of killing it, so no enqueued reliable message is ever lost across a
  reconnect.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Tuple

from ...obs.events import EventKind, EventRecorder
from ...sim.faults import FaultPlan
from ..chaos import ChaosChannel, chaos_specs_for
from ..transport import (
    CONTROL_PRIORITY,
    DATA_KINDS,
    DEFAULT_CHUNK_BYTES,
    RELIABLE_KINDS,
    ChunkRecord,
    ChunkScheduler,
    ReliableOutbox,
    RetryPolicy,
    TokenBucket,
    TransportError,
    _Pending,
)
from ..wire import SEQ_NONE, WireKind, encode_frame, reseq_frame


def chaos_policy(plan: Optional[FaultPlan], machine: int, peer: int,
                 epoch: float,
                 clock: Callable[[], float] = time.monotonic
                 ) -> Optional[ChaosChannel]:
    """A socket-less :class:`ChaosChannel` for the async TX path.

    Only the pure :meth:`~repro.live.chaos.ChaosChannel.plan_frame`
    decision procedure is used, so the wrapped socket is ``None``;
    returns ``None`` when the plan doesn't target ``machine`` (zero
    overhead on clean runs).
    """
    if plan is None or not chaos_specs_for(plan, machine):
        return None
    return ChaosChannel(None, plan, machine, peer, epoch, clock=clock)


class AsyncPrioritySender:
    """Priority heap + Go-Back-N reliability on one asyncio stream.

    API mirrors the thread-hosted sender — ``send`` / ``send_ack`` /
    ``handle_ack`` are synchronous and never touch the network (handlers
    may call them from read callbacks); ``flush`` / ``close`` are
    coroutines.  The draining task pops the most urgent chunk, shapes
    it, applies chaos, writes, and re-consults the heap — preemption
    granularity is ``chunk_bytes``.  Unshaped and unsabotaged, a write
    cannot yield between chunks anyway, so chunks popped back to back go
    out as one write per burst (still one frame and record per chunk).
    """

    def __init__(self, writer: asyncio.StreamWriter, sender_id: int,
                 shaper: Optional[TokenBucket] = None,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 clock: Callable[[], float] = time.monotonic,
                 recorder: Optional[EventRecorder] = None,
                 node: str = "",
                 retry: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosChannel] = None) -> None:
        self.writer = writer
        self.sender_id = sender_id
        self.shaper = shaper
        self.chunk_bytes = chunk_bytes
        self.timeline: List[ChunkRecord] = []
        self._clock = clock
        self.recorder = recorder
        self.node = node
        self.retry = retry
        self.chaos = chaos
        self._outbox = ReliableOutbox(retry) if retry is not None else None
        self._next_seq = 0
        self._sched = ChunkScheduler(chunk_bytes)
        self._queued_ack: Optional[_Pending] = None  # pushed, not yet popped
        self._closing = False
        self._writing = False  # a popped chunk is not on the wire yet
        self._error: Optional[BaseException] = None
        self._broken: Optional[BaseException] = None
        self._wake = asyncio.Event()
        self._progress = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"{node}:send")

    # ------------------------------------------------------------------
    # Synchronous entry points (callable from read callbacks)
    # ------------------------------------------------------------------
    def send(self, kind: WireKind, key: int, iteration: int, priority: int,
             payload: bytes = b"", ack_seq: int = SEQ_NONE) -> _Pending:
        """Enqueue one logical message for prioritized transmission."""
        if self._error is not None:
            raise TransportError("sender already failed") from self._error
        if self._closing:
            raise TransportError("sender is closed")
        now = self._clock()
        item = self._sched.push(kind, key, iteration, priority, payload,
                                enqueue_ts=now, ack_seq=ack_seq)
        if self.recorder is not None and kind in DATA_KINDS:
            self.recorder.emit(
                EventKind.SLICE_ENQUEUED, node=self.node, ts=now,
                key=key, iteration=iteration, priority=priority,
                nbytes=len(payload), detail=kind.name.lower())
        self._wake.set()
        return item

    def send_ack(self, cum_seq: int) -> None:
        """Queue a cumulative ``CHUNK_ACK`` for the reverse direction.

        At most one is queued per connection: an ack the drain task has
        not popped yet is raised in place, since only the last one
        queued before the next drain step carries news.
        """
        if cum_seq < 0:
            return
        if self._queued_ack is not None:
            self._queued_ack.ack_seq = max(self._queued_ack.ack_seq, cum_seq)
            return
        try:
            self._queued_ack = self.send(WireKind.CHUNK_ACK, -1, 0,
                                         CONTROL_PRIORITY, ack_seq=cum_seq)
        except TransportError:
            pass

    def handle_ack(self, acked_seq: int) -> None:
        """Absorb a peer's cumulative ack (read-callback entry point)."""
        if self._outbox is None:
            return
        if self._outbox.ack(acked_seq):
            self._progress.set()
            self._wake.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def rebind(self, writer: asyncio.StreamWriter) -> None:
        """Move the sender onto a replacement connection.

        The new byte stream's peer inbox expects seq 0: queued acks for
        the dead stream are purged, the unacked backlog is renumbered
        onto ``0..n-1`` and marked immediately due, and the drain task
        is unparked.
        """
        self.writer = writer
        self._broken = None
        self._sched.purge((WireKind.CHUNK_ACK,))
        self._queued_ack = None
        if self._outbox is not None:
            self._next_seq = self._outbox.renumber(reseq_frame, self._clock())
        else:
            self._next_seq = 0
        self._wake.set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def failure(self) -> Optional[BaseException]:
        return self._error

    @property
    def broken(self) -> bool:
        """Parked on a dead connection, awaiting :meth:`rebind`."""
        return self._broken is not None

    async def flush(self, timeout: float = 30.0) -> None:
        """Wait until every enqueued message is written — and, when a
        :class:`RetryPolicy` is attached, acknowledged by the peer."""
        deadline = self._clock() + timeout
        # Partially sent messages re-queue themselves in the heap, so
        # len(self._sched) covers in-flight multi-chunk messages too.
        while ((len(self._sched) or self._writing
                or (self._outbox is not None and len(self._outbox)))
               and self._error is None):
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise TransportError("flush timed out")
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(),
                                       min(remaining, 0.05))
            except asyncio.TimeoutError:
                pass
        if self._error is not None:
            raise TransportError("sender failed") from self._error

    async def close(self, timeout: float = 30.0) -> None:
        """Flush pending messages, then stop the drain task."""
        try:
            await self.flush(timeout)
        finally:
            self._closing = True
            self._wake.set()
            try:
                await asyncio.wait_for(asyncio.shield(self._task), timeout)
            except (asyncio.TimeoutError, Exception):
                self._task.cancel()

    def abort(self) -> None:
        """Stop immediately without flushing (error-path teardown)."""
        self._closing = True
        self._task.cancel()

    async def wait_closed(self) -> None:
        """After :meth:`close` / :meth:`abort`: until the drain task ended."""
        await asyncio.gather(self._task, return_exceptions=True)

    def stats(self) -> Dict[str, int]:
        """Reliability counters (zeros when no :class:`RetryPolicy`)."""
        totals: Dict[str, int] = {}
        if self._outbox is None:
            totals.update({"frames_retransmitted": 0, "acks_received": 0,
                           "unacked_frames": 0})
        else:
            totals.update({"frames_retransmitted": self._outbox.retransmits,
                           "acks_received": self._outbox.acks_received,
                           "unacked_frames": len(self._outbox)})
        if self.chaos is not None:
            totals.update(self.chaos.stats())
        return totals

    # ------------------------------------------------------------------
    # Drain task
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        try:
            while True:
                if self._broken is not None:
                    # Parked on a dead connection: hold every reliable
                    # frame (outbox + heap) until rebind() or close().
                    if self._closing:
                        return
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                now = self._clock()
                if self._outbox is not None and len(self._outbox):
                    # May raise TransportError after max_retries —
                    # surfaced through .failed / flush().
                    due = self._outbox.due(now)
                    if due:
                        for _, frame_bytes in due:
                            if not await self._write(frame_bytes):
                                break  # parked; resumes after rebind()
                        continue
                popped = self._sched.pop_chunk()
                if popped is None:
                    if self._closing:
                        return
                    timeout = None
                    if self._outbox is not None and len(self._outbox):
                        deadline = self._outbox.next_deadline(self._clock())
                        timeout = max(1e-3, deadline - self._clock())
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(self._wake.wait(), timeout)
                    except asyncio.TimeoutError:
                        pass
                    continue
                # An unshaped, unsabotaged write does not yield below the
                # transport's high-water mark, so nothing more urgent can
                # arrive between its chunks: gather them into one write.
                # Shaped or sabotaged links stay one write per chunk.
                limit = (self.writer.transport.get_write_buffer_limits()[1]
                         if self.shaper is None and self.chaos is None else 0)
                self._writing = True
                frames: List[bytes] = []
                burst: List[Tuple[_Pending, bool]] = []
                gathered = 0
                while popped is not None:
                    item, chunk, offset, done, preempted = popped
                    if item is self._queued_ack:
                        self._queued_ack = None  # the next ack queues afresh
                    reliable = (self._outbox is not None
                                and item.kind in RELIABLE_KINDS)
                    # ack_seq: SEQ_NONE, but for a CHUNK_ACK the reverse
                    # direction's cumulative ack — neither is sequenced.
                    seq = self._next_seq if reliable else item.ack_seq
                    frame = encode_frame(
                        item.kind, self.sender_id, item.key, item.iteration,
                        item.priority, chunk, offset=offset,
                        total=len(item.payload), seq=seq)
                    if reliable:
                        # Recorded before the write so an ack racing the
                        # send can never miss the outbox entry — and so a
                        # mid-frame disconnect never loses the chunk.
                        self._next_seq += 1
                        self._outbox.record(seq, frame, self._clock())
                    if (preempted is not None and self.recorder is not None
                            and preempted.kind in DATA_KINDS):
                        self.recorder.emit(
                            EventKind.SLICE_PREEMPTED, node=self.node,
                            ts=self._clock(), key=preempted.key,
                            iteration=preempted.iteration,
                            priority=preempted.priority,
                            nbytes=len(preempted.payload) - preempted.offset,
                            detail=f"overtaken_by_key={item.key}")
                    frames.append(frame)
                    burst.append((item, done))
                    gathered += len(frame)
                    popped = (self._sched.pop_chunk() if gathered < limit
                              else None)
                t0 = self._clock()
                if not await self._write(b"".join(frames), item.priority):
                    self._writing = False  # parked; the outbox holds it
                    continue
                t1 = self._clock()
                for (item, done), frame in zip(burst, frames):
                    # Every frame carries its burst's write interval; a
                    # message's own wire time is its share of the bytes.
                    item.wire_s += (t1 - t0) * len(frame) / gathered
                    self.timeline.append(ChunkRecord(
                        self.sender_id, int(item.kind), item.key,
                        item.iteration, item.priority, t0, t1, len(frame)))
                    if (done and self.recorder is not None
                            and item.kind in DATA_KINDS):
                        queue_s = max(0.0,
                                      (t1 - item.enqueue_ts) - item.wire_s)
                        self.recorder.emit(
                            EventKind.SLICE_SENT, node=self.node, ts=t1,
                            key=item.key, iteration=item.iteration,
                            priority=item.priority, nbytes=len(item.payload),
                            queue_s=queue_s, wire_s=item.wire_s,
                            detail=item.kind.name.lower())
                self._writing = False
                if not len(self._sched):
                    self._progress.set()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported via .failed
            self._error = exc
            self._progress.set()

    async def _write(self, frame: bytes,
                     priority: int = CONTROL_PRIORITY + 1) -> bool:
        """Shape, sabotage, and write one frame.

        Messages at or below ``CONTROL_PRIORITY`` ride the unshaped
        CONTROL lane (cluster admission/completion and acks must not
        starve behind a backlogged tenant's gradients).  Returns False
        when the connection died mid-write: the sender parks (``broken``)
        and the frame survives in the outbox for the post-:meth:`rebind`
        retransmission (unreliable frames — acks and heartbeats — are
        repairable by design and simply dropped).  A failed write refunds
        its shaper reservation: the bytes never reached the wire and the
        retransmission reserves again, so without the refund a shared
        bucket would be debited twice per reconnect.
        """
        reserved = 0
        if self.shaper is not None and priority > CONTROL_PRIORITY:
            reserved = len(frame)
            wait = self.shaper.reserve(reserved)
            if wait > 0:
                await asyncio.sleep(wait)
        try:
            if self.chaos is not None:
                delay, payloads = self.chaos.plan_frame(frame)
                if delay > 0:
                    await asyncio.sleep(delay)
                for payload in payloads:
                    self.writer.write(payload)
            else:
                self.writer.write(frame)
            await self.writer.drain()
        except (ConnectionError, OSError) as exc:
            if self._outbox is None:
                raise
            if reserved:
                self.shaper.refund(reserved)
            self._broken = exc
            self._progress.set()
            return False
        return True


async def open_connection_with_retry(
        host: str, port: int, timeout_s: float = 15.0,
        interval_s: float = 0.05
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``(host, port)``, retrying until ``timeout_s`` — a peer may
    still be binding (transient faults are expected, not fatal)."""
    deadline = time.monotonic() + timeout_s
    last_err: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            last_err = exc
            await asyncio.sleep(interval_s)
    raise TransportError(f"could not connect to {(host, port)} within "
                         f"{timeout_s}s") from last_err
