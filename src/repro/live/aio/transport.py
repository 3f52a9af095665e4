"""Asyncio transport: the sender state machine on async streams.

:class:`AsyncPrioritySender` hosts :class:`repro.live.transport.
SenderCore` — the :class:`ChunkScheduler` heap, the
:class:`ReliableOutbox` Go-Back-N state, the v2 wire frames, the
per-frame records — on an event loop, with one drain task per
connection, and adds what a host owns: waiting, :class:`TokenBucket`
shaping, chaos and the write.  That is what lets a single process carry
64+ workers and hundreds of connections: each connection costs a task
and a heap, not two OS threads
(:class:`~repro.live.transport.PrioritySender` is the thread host of
the same core).

One capability the thread-hosted sender does not have: **chaos
without a socket** — fault injection reuses
:meth:`repro.live.chaos.ChaosChannel.plan_frame` (the exact seeded draw
discipline) with the delay applied as ``await asyncio.sleep`` and the
payloads written to the stream writer.

A failed write fails the sender, as it does on the thread host: the
drain task ends, ``failed`` turns True and ``flush`` raises at once.

Every wait of the live cluster — the drain task's, a flush, each node's
gates and barriers — is :func:`wait_until`: bounded and cancel-safe are
properties of that one function.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Optional, Tuple

from ...obs.events import EventRecorder
from ...sim.faults import FaultPlan
from ..chaos import ChaosChannel, chaos_specs_for
from ..transport import (
    CONTROL_PRIORITY,
    DEFAULT_CHUNK_BYTES,
    RetryPolicy,
    SenderCore,
    TokenBucket,
    TransportError,
)
from ..wire import SEQ_NONE, WireKind


async def wait_until(event: asyncio.Event, ready: Callable[[], bool],
                     budget: Optional[float]) -> bool:
    """Wait until ``ready()`` holds (True) or ``budget`` seconds pass
    first (False); ``budget=None`` waits for ``ready()`` alone.

    ``ready()`` is checked on entry and re-checked after every wake, so
    ``event`` only says "look again" and may be shared by several
    waiters.  The budget is a timer that sets ``event``, not a wrapper:
    no task is created, and a ``cancel()`` landing in the same loop pass
    as a set always propagates (``asyncio.wait_for`` on 3.11 returns
    normally then, and its caller waits on as if never cancelled).
    """
    if ready():
        return True
    loop = asyncio.get_running_loop()
    deadline = None if budget is None else loop.time() + budget
    while True:
        timer = None
        if deadline is not None:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            timer = loop.call_later(remaining, event.set)
        event.clear()
        try:
            await event.wait()
        finally:
            if timer is not None:
                timer.cancel()
        if ready():
            return True


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
    """:class:`~repro.live.transport.SenderCore` on one asyncio stream.

    API mirrors the thread-hosted sender — ``send`` / ``send_ack`` /
    ``handle_ack`` are synchronous and never touch the network (handlers
    may call them from read callbacks); ``flush`` / ``close`` are
    coroutines.  The draining task takes the most urgent chunk's frame
    from the core, shapes it, applies chaos, writes, and asks again —
    preemption granularity is ``chunk_bytes``.  Unshaped and
    unsabotaged, a write cannot yield between chunks anyway, so the core
    is asked for a burst up to the transport's high-water mark and it
    goes out as one write (still one frame and record per chunk).
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
        self.shaper = shaper
        self.chaos = chaos
        self.core = SenderCore(sender_id, chunk_bytes, clock, recorder, node,
                               retry)
        self.timeline = self.core.timeline
        self._clock = clock
        # Set on every change the drain task or a flush may be waiting
        # for: a send, an ack, a close, an idle drain, a failure.
        self._changed = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"{node}:send")

    # ------------------------------------------------------------------
    # Synchronous entry points (callable from read callbacks)
    # ------------------------------------------------------------------
    def send(self, kind: WireKind, key: int, iteration: int, priority: int,
             payload: bytes = b"", ack_seq: int = SEQ_NONE) -> None:
        """Enqueue one logical message for prioritized transmission."""
        self.core.send(kind, key, iteration, priority, payload, ack_seq)
        self._changed.set()

    def send_ack(self, cum_seq: int) -> None:
        """Queue a cumulative ``CHUNK_ACK`` for the reverse direction
        (at most one per connection: :meth:`SenderCore.send_ack`)."""
        if self.core.send_ack(cum_seq):
            self._changed.set()

    def handle_ack(self, acked_seq: int) -> None:
        """Absorb a peer's cumulative ack (read-callback entry point)."""
        if self.core.handle_ack(acked_seq):
            self._changed.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        return self.core.error is not None

    @property
    def failure(self) -> Optional[BaseException]:
        return self.core.error

    async def flush(self, timeout: float = 30.0) -> None:
        """Wait until every enqueued message is written — and, when a
        :class:`RetryPolicy` is attached, acknowledged by the peer."""
        core = self.core
        if not await wait_until(
                self._changed,
                lambda: not core.busy or core.error is not None, timeout):
            raise TransportError("flush timed out")
        if core.error is not None:
            raise TransportError("sender failed") from core.error

    async def close(self, timeout: float = 30.0) -> None:
        """Flush pending messages, then stop the drain task."""
        try:
            await self.flush(timeout)
        finally:
            self.core.closing = True
            self._changed.set()
            done, _ = await asyncio.wait({self._task}, timeout=timeout)
            if not done:
                self._task.cancel()

    def abort(self) -> None:
        """Stop immediately without flushing (error-path teardown)."""
        self.core.closing = True
        self._task.cancel()

    async def wait_closed(self) -> None:
        """After :meth:`close` / :meth:`abort`: until the drain task ended."""
        await asyncio.gather(self._task, return_exceptions=True)

    def release(self) -> None:
        """After :meth:`wait_closed`: drop the ended drain task, whose
        ``CancelledError`` traceback holds this sender's frame, and the
        closed stream."""
        self._task = None
        self.writer = None

    def stats(self) -> Dict[str, int]:
        """Reliability counters (zeros when no :class:`RetryPolicy`),
        plus the chaos channel's when the link is sabotaged."""
        totals = self.core.stats()
        if self.chaos is not None:
            totals.update(self.chaos.stats())
        return totals

    # ------------------------------------------------------------------
    # Drain task
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        core = self.core
        try:
            while True:
                # May raise TransportError after max_retries — surfaced
                # through .failed / flush().
                retrans = core.due(self._clock())
                if retrans:
                    for frame in retrans:
                        await self._write(frame)
                    continue
                # Unshaped and unsabotaged, a write does not yield below
                # the transport's high-water mark: one write per burst.
                burst = core.next_burst(
                    self.writer.transport.get_write_buffer_limits()[1]
                    if self.shaper is None and self.chaos is None else 0)
                if burst is None:
                    if core.closing:
                        return
                    self._changed.set()  # all written: a flush looks again
                    # Until a send or a close, or the retransmit timer
                    # (None: nothing unacked).
                    await wait_until(
                        self._changed,
                        lambda: len(core.sched) > 0 or core.closing,
                        core.timeout(self._clock()))
                    continue
                t0 = self._clock()
                await self._write(*burst)
                core.wrote(t0, self._clock())
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported via .failed
            # A failed write lands here too: the sender fails, as the
            # thread host's does, and flush() raises at once.
            core.error = exc
            self._changed.set()

    async def _write(self, frame: bytes,
                     priority: int = CONTROL_PRIORITY + 1) -> None:
        """Shape, sabotage, and write one frame.

        Messages at or below ``CONTROL_PRIORITY`` ride the unshaped
        CONTROL lane (cluster admission/completion and acks must not
        starve behind a backlogged tenant's gradients).
        """
        if self.shaper is not None and priority > CONTROL_PRIORITY:
            wait = self.shaper.reserve(len(frame))
            if wait > 0:
                await asyncio.sleep(wait)
        if self.chaos is not None:
            delay, payloads = self.chaos.plan_frame(frame)
            if delay > 0:
                await asyncio.sleep(delay)
            for payload in payloads:
                self.writer.write(payload)
        else:
            self.writer.write(frame)
        await self.writer.drain()


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
