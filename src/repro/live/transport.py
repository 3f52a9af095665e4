"""Priority-scheduled, rate-shaped socket transport (repro.live).

The paper throttles real NICs with ``tc qdisc`` and relies on MXNet's
sender to drain a priority queue into the constrained link.  This module
is that machinery in userspace:

* :class:`TokenBucket` — a software rate shaper.  Where the paper's
  testbed uses kernel traffic control to emulate slower networks
  (Section 5.3), we meter our own sends so a localhost link behaves like
  a bandwidth-limited one.
* :class:`SenderCore` — one connection's sender state machine: a heap
  of pending messages drained in ``(priority, enqueue order)`` order,
  one frame per chunk, numbered and kept for Go-Back-N retransmission.
  Because the heap is re-consulted between runs of chunks, and a run
  never outlasts a write that cannot yield, a newly enqueued urgent
  slice genuinely preempts the rest of a large low-priority transfer —
  P3's scheduling claim, happening on a real socket rather than in a
  simulator event loop.  It does no I/O and no
  waiting; :class:`PrioritySender` hosts it on a thread and
  :class:`repro.live.aio.AsyncPrioritySender` on an event loop.

Every transmitted chunk is recorded as a :class:`ChunkRecord`; these
convert directly into the simulator's transmission-record schema so the
live and simulated timelines can be analysed by the same code
(:func:`timeline_utilization`).
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..obs.events import EventKind, EventRecorder
from ..sim.trace import UtilizationTrace
from .wire import (
    HEADER_SIZE,
    MAX_FRAME_PAYLOAD,
    SEQ_NONE,
    Frame,
    FrameDecoder,
    Reassembler,
    WireKind,
    WireMessage,
    encode_run,
)

#: Priority used for control traffic (heartbeats, byes): more urgent
#: than any data priority so liveness never queues behind gradients.
CONTROL_PRIORITY = -(1 << 30)

#: Priority of a worker's closing ``BYE``: *less* urgent than any data
#: priority, so it drains only after every data message the worker
#: enqueued before it — its arrival therefore certifies that the
#: connection's traffic was delivered (TCP FIFO + FIFO-within-priority
#: in the sender heap).
BARRIER_PRIORITY = 1 << 30

DEFAULT_CHUNK_BYTES = 16_384

#: Wire kinds that are *sequenced*: numbered per connection, tracked in
#: the retransmit outbox, and duplicate-suppressed at the receiver.
#: Control traffic (heartbeats, heartbeat ACKs, CHUNK_ACKs) is bare —
#: periodic or cumulative, so a lost one is repaired by the next.
RELIABLE_KINDS = frozenset(
    (WireKind.PUSH, WireKind.PULL_REQ, WireKind.PULL_RESP, WireKind.BYE))


class TransportError(Exception):
    """Raised on connection setup or send failures."""


class TokenBucket:
    """Token-bucket rate shaper metering bytes onto the wire.

    ``reserve(n)`` debits ``n`` bytes and returns how long the caller
    must sleep before sending them, keeping the long-run rate at
    ``rate_bytes_per_s`` with bursts up to ``burst_bytes``.  The clock
    is injectable so the arithmetic is unit-testable without sleeping.
    Thread-safe: one bucket may be shared by several senders to model a
    single NIC carrying multiple connections.
    """

    def __init__(self, rate_bytes_per_s: float,
                 burst_bytes: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate_bytes_per_s must be positive")
        self.rate = float(rate_bytes_per_s)
        self.burst = float(burst_bytes if burst_bytes is not None
                           else max(1, int(rate_bytes_per_s // 10)))
        if self.burst <= 0:
            raise ValueError("burst_bytes must be positive")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        self._lock = threading.Lock()

    def reserve(self, nbytes: int) -> float:
        """Debit ``nbytes``; return seconds to wait before sending them."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            self._tokens -= nbytes
            if self._tokens >= 0:
                return 0.0
            return -self._tokens / self.rate

class ChunkRecord(NamedTuple):
    """One chunk's occupancy of the (shaped) link.

    Mirrors :class:`repro.sim.trace.TransmissionRecord` so live runs can
    reuse the simulator's utilization analysis.  Chunks the async sender
    wrote as one burst share that write's interval.
    """

    sender: int
    kind: int
    key: int
    iteration: int
    priority: int
    start: float
    end: float
    nbytes: int


def timeline_utilization(records: List[ChunkRecord],
                         direction: str = "tx") -> UtilizationTrace:
    """Convert a live chunk timeline into a sim :class:`UtilizationTrace`.

    The sender id plays the simulator's ``machine`` role, so the binned
    Gbit/s series, idle fractions and peak-rate helpers all apply to
    live traffic unchanged.
    """
    trace = UtilizationTrace()
    for r in records:
        trace(r.sender, direction, r.start, r.end, r.nbytes)
    return trace


def goodput_bytes_per_s(records: List[ChunkRecord]) -> float:
    """Payload bytes per second of a timeline's data frames.

    Counts only ``PUSH`` and ``PULL_RESP`` payload (a record's wire
    bytes minus the frame header): headers and control frames are not
    goodput.  The span is the timeline's first write to its last, over
    every record.
    """
    if not records:
        return 0.0
    span = max(r.end for r in records) - min(r.start for r in records)
    total = sum(r.nbytes - HEADER_SIZE for r in records
                if r.kind in DATA_KINDS)
    return total / span if span > 0 else float("inf")


@dataclass(eq=False)
class _Pending:
    """One logical message part-way through transmission; the heap
    orders ``(priority, seq, item)`` tuples, never the items."""

    priority: int
    seq: int
    kind: WireKind
    key: int
    iteration: int
    payload: bytes
    offset: int = 0
    enqueue_ts: float = 0.0
    wire_s: float = 0.0
    ack_seq: int = SEQ_NONE


#: Wire kinds that carry gradient/parameter slices and therefore appear
#: in the shared :mod:`repro.obs` event stream; control traffic does not.
DATA_KINDS = (WireKind.PUSH, WireKind.PULL_RESP)


class ChunkScheduler:
    """The pure scheduling core of :class:`SenderCore`.

    Holds the pending-message heap and implements chunking and
    preemption with no sockets, threads or clocks, so property tests
    (``tests/live/test_transport.py``) can drive arbitrary push/pop
    interleavings deterministically.  Invariants it guarantees:

    * every popped run of chunks belongs to the most urgent pending
      message — minimal ``(priority, enqueue order)`` at the moment of
      the pop;
    * a message's chunks are emitted in offset order with no gaps or
      duplicates, regardless of how often it is preempted;
    * preemption is detected (the previously transmitting message was
      interrupted mid-payload) but never loses the interrupted message.
    """

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if chunk_bytes > MAX_FRAME_PAYLOAD:
            # Fail here, not mid-drain: encode_run refuses any run whose
            # chunks would exceed the frame cap.
            raise ValueError(f"chunk_bytes {chunk_bytes} exceeds "
                             f"MAX_FRAME_PAYLOAD={MAX_FRAME_PAYLOAD}")
        self.chunk_bytes = chunk_bytes
        self._heap: List[Tuple[int, int, _Pending]] = []
        self._seq = 0
        self._last: Optional[_Pending] = None  # message sent from last pop

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, kind: WireKind, key: int, iteration: int, priority: int,
             payload: bytes = b"", enqueue_ts: float = 0.0,
             ack_seq: int = SEQ_NONE) -> _Pending:
        item = _Pending(priority, self._seq, kind, key, iteration, payload,
                        enqueue_ts=enqueue_ts, ack_seq=ack_seq)
        self._seq += 1
        heapq.heappush(self._heap, (priority, item.seq, item))
        return item

    def pop_run(self, max_chunks: int) -> Optional[Tuple[_Pending, int, int,
                                                         bool,
                                                         Optional[_Pending]]]:
        """Take a run of the most urgent message's next chunks.

        At most ``max_chunks`` of them, and at least one.  Returns
        ``(item, offset, end, done, preempted)`` or ``None`` when nothing
        is pending.  The run is ``item.payload[offset:end]``
        (``item.offset`` has already advanced to ``end``), cut into
        ``chunk_bytes`` chunks; an empty message is one empty chunk.
        ``done`` is True when the run ends the message; ``preempted``
        names the message whose in-progress transmission this pop
        interrupted (it stays queued and resumes later), or ``None``.
        """
        if not self._heap:
            return None
        # The head's key does not change while it transmits, so it is
        # advanced where it sits and leaves the heap only when done.
        item = self._heap[0][2]
        offset, size = item.offset, len(item.payload)
        end = offset + max_chunks * self.chunk_bytes
        if end > size:
            end = size
        prev = self._last
        preempted = (prev if prev is not None and prev is not item
                     and prev.offset < len(prev.payload) else None)
        item.offset = end
        done = end >= size
        if done:
            heapq.heappop(self._heap)
        self._last = item
        return item, offset, end, done, preempted

    def pop_chunk(self) -> Optional[Tuple[_Pending, bytes, int, bool,
                                          Optional[_Pending]]]:
        """Take the most urgent message's next chunk.

        :meth:`pop_run`'s one-chunk case, as ``(item, chunk, offset,
        done, preempted)``."""
        run = self.pop_run(1)
        if run is None:
            return None
        item, offset, end, done, preempted = run
        return item, item.payload[offset:end], offset, done, preempted

@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission knobs of the reliable transport.

    The ack timer is Go-Back-N per connection: when the *oldest*
    unacknowledged frame exceeds its deadline, every unacked frame is
    retransmitted in order and the deadline backs off exponentially
    (``ack_timeout_s * backoff**retries``, capped at ``max_backoff_s``)
    with a seeded multiplicative jitter in ``[0, jitter]`` so competing
    connections don't retransmit in lockstep.  ``max_retries`` timer
    expiries without progress fail the sender with a diagnostic
    :class:`TransportError` instead of retrying forever.
    """

    ack_timeout_s: float = 0.25
    backoff: float = 1.6
    max_backoff_s: float = 2.0
    max_retries: int = 12
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ack_timeout_s <= 0:
            raise ValueError("ack_timeout_s must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_backoff_s < self.ack_timeout_s:
            raise ValueError("max_backoff_s must be >= ack_timeout_s")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def deadline_after(self, retries: int, rng: random.Random) -> float:
        """Seconds until the next retransmission after ``retries`` expiries."""
        base = min(self.ack_timeout_s * self.backoff ** retries,
                   self.max_backoff_s)
        return base * (1.0 + self.jitter * rng.random())


class ReliableOutbox:
    """Sender-side Go-Back-N state: unacked frames awaiting CHUNK_ACKs.

    Pure bookkeeping — no sockets, no threads, injectable clock values —
    so retry/backoff arithmetic is unit-testable deterministically
    (``tests/live/test_chaos.py``).  Not thread-safe; the thread-hosted
    :class:`PrioritySender` serializes access under its own lock.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._rng = random.Random(policy.seed)
        #: (seq, frame bytes), ascending: record() appends in seq order,
        #: so a cumulative ack only ever trims the front.
        self._pending: "Deque[Tuple[int, bytes]]" = deque()
        self._retries = 0
        self._deadline: Optional[float] = None
        self.retransmits = 0
        self.acks_received = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def retries(self) -> int:
        return self._retries

    def record(self, seq: int, frame: bytes, now: float) -> None:
        """Track one sent sequenced frame until its ack arrives."""
        self._pending.append((seq, frame))
        if self._deadline is None:
            self._deadline = now + self.policy.deadline_after(0, self._rng)

    def record_run(self, seq: int, frames: Sequence[bytes],
                   now: float) -> None:
        """:meth:`record` frames ``seq, seq + 1, ...`` in one call."""
        self._pending.extend(enumerate(frames, seq))
        if self._deadline is None:
            self._deadline = now + self.policy.deadline_after(0, self._rng)

    def ack(self, upto: int) -> int:
        """Cumulative ack: drop every tracked seq <= ``upto``."""
        pending, acked = self._pending, 0
        while pending and pending[0][0] <= upto:
            pending.popleft()
            acked += 1
        if acked:
            self.acks_received += 1
            self._retries = 0       # progress: reset the backoff ladder
            self._deadline = None   # re-armed on the next due() / record()
        return acked

    def next_deadline(self, now: float) -> Optional[float]:
        """When the retransmit timer next fires (None = nothing pending)."""
        if not self._pending:
            return None
        if self._deadline is None:
            self._deadline = now + self.policy.deadline_after(
                self._retries, self._rng)
        return self._deadline

    def due(self, now: float) -> List[Tuple[int, bytes]]:
        """Frames to retransmit now, in seq order (empty = timer not due).

        Raises :class:`TransportError` once ``max_retries`` timer
        expiries have passed without an ack.
        """
        deadline = self.next_deadline(now)
        if deadline is None or now < deadline:
            return []
        self._retries += 1
        if self._retries > self.policy.max_retries:
            raise TransportError(
                f"no ack for frame seq={self._pending[0][0]} after "
                f"{self.policy.max_retries} retransmissions "
                f"({len(self._pending)} frames unacked) — peer dead?")
        self._deadline = now + self.policy.deadline_after(
            self._retries, self._rng)
        out = list(self._pending)
        self.retransmits += len(out)
        return out


class ReliableInbox:
    """Receiver-side sequence tracking: in-order delivery, dup suppression.

    TCP preserves the order the peer's chaos channel *wrote*, so the
    inbox expects seqs ``0, 1, 2, ...`` per connection and classifies
    each arriving sequenced frame:

    * ``"deliver"`` — the expected seq; hand the frame up.
    * ``"duplicate"`` — already delivered (chaos duplication or a
      retransmission racing its own ack); discard, but re-ack so the
      sender stops retransmitting.
    * ``"gap"`` — a later seq than expected, meaning an earlier frame
      was dropped or corrupted in between; discard (Go-Back-N: the
      sender retransmits everything unacked, so the expected frame is
      already on its way again).
    """

    def __init__(self) -> None:
        self._expected = 0
        self.duplicates = 0
        self.gaps = 0

    @property
    def cumulative_ack(self) -> int:
        """Highest in-order seq delivered so far (-1 before the first)."""
        return self._expected - 1

    def accept(self, seq: int) -> str:
        if seq == self._expected:
            self._expected += 1
            return "deliver"
        if seq < self._expected:
            self.duplicates += 1
            return "duplicate"
        self.gaps += 1
        return "gap"


class ReliableReceiver:
    """One connection's receive pipeline: decode, dedup, ack, reassemble.

    Wraps a lenient :class:`FrameDecoder`, a :class:`ReliableInbox` and
    a :class:`Reassembler`; :meth:`feed` turns raw socket bytes into
    fully reassembled :class:`WireMessage`\\ s while transparently

    * routing incoming ``CHUNK_ACK`` frames to the local sender's
      :meth:`PrioritySender.handle_ack`,
    * discarding duplicate/gap frames, and
    * calling the sender's ``send_ack`` with the cumulative ack before
      every completed message is handed up and once more when the batch
      ends — the sender keeps at most one such ack queued per
      connection and raises it in place, so a batch costs one frame.

    ``sender_for`` maps a decoded frame to the connection's local
    sender; it is consulted per frame because a *server* only learns
    which worker a connection belongs to from the frames themselves
    (``None`` = no sender yet, skip acking — the peer retransmits).
    """

    def __init__(self,
                 sender_for: Optional[Callable[[Frame], Optional[
                     "PrioritySender"]]] = None,
                 strict: bool = False) -> None:
        self.decoder = FrameDecoder(strict=strict)
        self.inbox = ReliableInbox()
        self.reassembler = Reassembler()
        self.sender_for = sender_for

    @property
    def crc_failures(self) -> int:
        return self.decoder.crc_failures

    def stats(self) -> Dict[str, int]:
        return {"crc_failures": self.decoder.crc_failures,
                "duplicate_frames": self.inbox.duplicates,
                "gap_frames": self.inbox.gaps}

    def feed(self, data: bytes) -> Iterator[WireMessage]:
        self.decoder.feed(data)
        sender_for, inbox = self.sender_for, self.inbox
        accept, add = inbox.accept, self.reassembler.add
        chunk_ack = WireKind.CHUNK_ACK
        ack_sender: Optional["PrioritySender"] = None
        ack_due = False
        for frame in self.decoder.frames():
            kind, seq = frame.kind, frame.seq
            if sender_for is not None:
                if ack_sender is None:
                    ack_sender = sender_for(frame)
                if kind is chunk_ack:
                    if ack_sender is not None:
                        ack_sender.handle_ack(seq)
                    continue
            elif kind is chunk_ack:
                continue
            if seq != SEQ_NONE:
                ack_due = True
                if accept(seq) != "deliver":
                    continue
            msg = add(frame)
            if msg is not None:
                # Ack everything decoded so far *before* handing the
                # message up: a BYE's handler may tear the sender down.
                if ack_due and ack_sender is not None:
                    ack_sender.send_ack(inbox.cumulative_ack)
                    ack_due = False
                yield msg
        if ack_due and ack_sender is not None:
            ack_sender.send_ack(inbox.cumulative_ack)


class SenderCore:
    """One connection's sender state machine — no socket, thread or loop.

    What a sender *decides* lives here once: which chunk leaves next
    (:class:`ChunkScheduler`), its sequence number, the frame's bytes,
    what stays in the :class:`ReliableOutbox` until acknowledged, the one
    queued ``CHUNK_ACK``, and what is recorded about each frame.  A host
    (:class:`PrioritySender` on a thread,
    :class:`repro.live.aio.AsyncPrioritySender` on an event loop) keeps
    only waiting, shaping, chaos and writing: it calls :meth:`due` and
    :meth:`next_burst` for bytes to put on the wire, reports the write
    with :meth:`wrote`, and sleeps at most
    :meth:`timeout` when both come back empty.  Not thread-safe: a
    threaded host makes every call under its own lock.

    Preemption granularity is ``chunk_bytes``, the software analogue of
    the paper's observation that slice granularity bounds how long an
    urgent update can be stuck behind bulk traffic.  With a
    :class:`RetryPolicy` the sender is *reliable*: a lossy channel
    (:mod:`repro.live.chaos`) delays a :data:`RELIABLE_KINDS` message
    but never loses it.
    """

    def __init__(self, sender_id: int,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 clock: Callable[[], float] = time.monotonic,
                 recorder: Optional[EventRecorder] = None,
                 node: str = "",
                 retry: Optional[RetryPolicy] = None) -> None:
        self.sender_id = sender_id
        self.sched = ChunkScheduler(chunk_bytes)
        #: Without a policy nothing is sequenced and the outbox stays empty.
        self.reliable = retry is not None
        self.outbox = ReliableOutbox(retry or RetryPolicy())
        #: One :class:`ChunkRecord` per written frame; appended in place.
        self.timeline: List[ChunkRecord] = []
        # Shared-schema observability (repro.obs); None = zero overhead.
        self.recorder = recorder
        self.node = node
        #: Set by the host: no further :meth:`send` is accepted.
        self.closing = False
        #: Set by the host when its drain loop died; ends :meth:`send`.
        self.error: Optional[BaseException] = None
        self._clock = clock
        self._next_seq = 0
        self._queued_ack: Optional[_Pending] = None  # pushed, not yet popped
        # (item, done, frames) per run of the burst handed out, not yet
        # recorded by wrote(), and the bytes of those frames
        self._burst: List[Tuple[_Pending, bool, List[bytes]]] = []
        self._gathered = 0

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def send(self, kind: WireKind, key: int, iteration: int, priority: int,
             payload: bytes = b"", ack_seq: int = SEQ_NONE) -> _Pending:
        """Enqueue one logical message for prioritized transmission."""
        if self.error is not None:
            raise TransportError("sender already failed") from self.error
        if self.closing:
            raise TransportError("sender is closed")
        now = self._clock()
        item = self.sched.push(kind, key, iteration, priority, payload,
                               enqueue_ts=now, ack_seq=ack_seq)
        if self.recorder is not None and kind in DATA_KINDS:
            self.recorder.emit(
                EventKind.SLICE_ENQUEUED, node=self.node, ts=now,
                key=key, iteration=iteration, priority=priority,
                nbytes=len(payload), detail=kind.name.lower())
        return item

    def send_ack(self, cum_seq: int) -> bool:
        """Queue a cumulative ``CHUNK_ACK`` for the reverse direction;
        return whether a message was queued (the host wakes its drain).

        At most one is queued per connection: one not popped yet is
        raised in place, since only the last before the next drain step
        carries news.  An ack to a closing or failed sender is swallowed:
        the peer's retransmission elicits a fresh one if it is needed.
        """
        if cum_seq < 0:
            return False
        if self._queued_ack is not None:
            self._queued_ack.ack_seq = max(self._queued_ack.ack_seq, cum_seq)
            return False
        try:
            self._queued_ack = self.send(WireKind.CHUNK_ACK, -1, 0,
                                         CONTROL_PRIORITY, ack_seq=cum_seq)
        except TransportError:
            return False
        return True

    def handle_ack(self, acked_seq: int) -> bool:
        """Absorb a peer's cumulative ack; return whether it made
        progress (the host wakes whoever waits in ``flush``)."""
        return self.outbox.ack(acked_seq) > 0

    # ------------------------------------------------------------------
    # What a host asks
    # ------------------------------------------------------------------
    def due(self, now: float) -> List[bytes]:
        """Frames to retransmit now, in seq order (empty = timer not
        due).  Raises :class:`TransportError` after ``max_retries``."""
        return [frame for _, frame in self.outbox.due(now)]

    def next_burst(self, limit: int = 0) -> Optional[Tuple[bytes, int]]:
        """Encode the most urgent chunk — and the chunks behind it while
        the burst is under ``limit`` bytes — as ``(bytes, priority)``;
        ``None`` when nothing is pending.

        ``limit`` is how much the host can write without yielding: below
        it nothing more urgent can arrive between chunks, so they go out
        as one write (still one frame and one record per chunk).  A host
        that shapes, sabotages or blocks per write passes 0.  Each
        message's share of the burst is popped as one run and encoded by
        one :func:`~repro.live.wire.encode_run` call.
        """
        sched = self.sched
        # Whole frames that keep the burst under limit, plus the one that
        # reaches it — where a chunk at a time would stop; at least one.
        frame_bytes = HEADER_SIZE + sched.chunk_bytes
        popped = sched.pop_run(-(-limit // frame_bytes)
                               if limit > frame_bytes else 1)
        if popped is None:
            return None
        now = self._clock()
        sender_id, outbox, burst = self.sender_id, self.outbox, self._burst
        frames: List[bytes] = []
        gathered = 0
        while True:
            item, offset, end, done, preempted = popped
            if item is self._queued_ack:
                self._queued_ack = None  # the next ack queues afresh
            reliable = self.reliable and item.kind in RELIABLE_KINDS
            # ack_seq: SEQ_NONE, but for a CHUNK_ACK the reverse
            # direction's cumulative ack — neither is sequenced.
            seq = self._next_seq if reliable else item.ack_seq
            payload = item.payload
            run = encode_run(item.kind, sender_id, item.key, item.iteration,
                             item.priority, memoryview(payload)[offset:end],
                             offset, len(payload), sched.chunk_bytes, seq,
                             reliable)
            if reliable:
                # Recorded before the write so an ack racing the send
                # can never miss the outbox entry.
                self._next_seq += len(run)
                outbox.record_run(seq, run, now)
            if (preempted is not None and self.recorder is not None
                    and preempted.kind in DATA_KINDS):
                self.recorder.emit(
                    EventKind.SLICE_PREEMPTED, node=self.node, ts=now,
                    key=preempted.key, iteration=preempted.iteration,
                    priority=preempted.priority,
                    nbytes=len(preempted.payload) - preempted.offset,
                    detail=f"overtaken_by_key={item.key}")
            frames += run
            burst.append((item, done, run))
            gathered += end - offset + HEADER_SIZE * len(run)
            if gathered >= limit:
                break
            popped = sched.pop_run(-((gathered - limit) // frame_bytes))
            if popped is None:
                break
        self._gathered += gathered
        return b"".join(frames), item.priority

    def timeout(self, now: float) -> Optional[float]:
        """Seconds a host with nothing to write may sleep before the
        retransmit timer needs it (``None`` = until woken)."""
        if not len(self.outbox):
            return None
        return max(1e-3, self.outbox.next_deadline(now) - now)

    def wrote(self, t0: float, t1: float) -> None:
        """The burst from :meth:`next_burst` was on the wire over
        ``[t0, t1]``: one :class:`ChunkRecord` per frame, each carrying
        the burst's write interval; a message's own wire time is its
        share of the bytes."""
        burst, recorder, gathered = self._burst, self.recorder, self._gathered
        append, record, sender_id = self.timeline.append, tuple.__new__, \
            self.sender_id
        elapsed = t1 - t0
        for item, done, run in burst:
            kind, key, iteration, priority = (int(item.kind), item.key,
                                              item.iteration, item.priority)
            wire_s = item.wire_s
            for frame in run:
                nbytes = len(frame)
                wire_s += elapsed * nbytes / gathered
                append(record(ChunkRecord, (sender_id, kind, key, iteration,
                                            priority, t0, t1, nbytes)))
            item.wire_s = wire_s
            if done and recorder is not None and item.kind in DATA_KINDS:
                # Same queueing definition as the simulator adapter:
                # time since enqueue not spent on this message's own
                # wire occupancy (shaper waits count as queueing).
                queue_s = max(0.0, (t1 - item.enqueue_ts) - wire_s)
                recorder.emit(
                    EventKind.SLICE_SENT, node=self.node, ts=t1,
                    key=key, iteration=iteration, priority=priority,
                    nbytes=len(item.payload), queue_s=queue_s,
                    wire_s=wire_s, detail=item.kind.name.lower())
        burst.clear()
        self._gathered = 0

    @property
    def busy(self) -> bool:
        """Something is queued, handed out but not yet recorded, or
        unacknowledged — what ``flush`` waits out.  Partially sent
        messages stay in the heap, so it covers them too."""
        return bool(len(self.sched) or self._burst or len(self.outbox))

    def stats(self) -> Dict[str, int]:
        """Reliability counters (zeros when no :class:`RetryPolicy`)."""
        return {"frames_retransmitted": self.outbox.retransmits,
                "acks_received": self.outbox.acks_received,
                "unacked_frames": len(self.outbox)}


class PrioritySender:
    """:class:`SenderCore` hosted on a thread over one blocking socket.

    ``send()`` never blocks on the network: it enqueues and wakes the
    sender thread, which shapes each frame the core hands it with the
    optional shared :class:`TokenBucket` and ``sendall``\\ s it.  Every
    core call is made under the sender's lock; the network I/O happens
    outside it.  With a :class:`RetryPolicy`, ``flush()`` waits for
    acknowledgement, not just for the write.

    The cluster's nodes use :class:`repro.live.aio.AsyncPrioritySender`,
    the event-loop host of the same core; this one is what
    ``bench/probes.py``'s ``sender.*`` probes and
    ``tests/live/test_transport.py`` drive.
    """

    def __init__(self, sock, sender_id: int,
                 shaper: Optional[TokenBucket] = None,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 clock: Callable[[], float] = time.monotonic,
                 recorder: Optional[EventRecorder] = None,
                 node: str = "",
                 retry: Optional[RetryPolicy] = None) -> None:
        self.sock = sock
        self.shaper = shaper
        self.core = SenderCore(sender_id, chunk_bytes, clock, recorder, node,
                               retry)
        self.timeline = self.core.timeline
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"sender-{sender_id}")
        self._thread.start()

    # ------------------------------------------------------------------
    def send(self, kind: WireKind, key: int, iteration: int, priority: int,
             payload: bytes = b"", ack_seq: int = SEQ_NONE) -> None:
        """Enqueue one logical message for prioritized transmission."""
        with self._cond:
            self.core.send(kind, key, iteration, priority, payload, ack_seq)
            self._cond.notify()

    def send_ack(self, cum_seq: int) -> None:
        """Queue a cumulative ``CHUNK_ACK`` (reader thread entry point;
        see :meth:`SenderCore.send_ack`)."""
        with self._cond:
            if self.core.send_ack(cum_seq):
                self._cond.notify()

    def handle_ack(self, acked_seq: int) -> None:
        """Absorb a peer's cumulative ack (reader thread entry point)."""
        with self._cond:
            if self.core.handle_ack(acked_seq):
                self._cond.notify_all()

    def flush(self, timeout: float = 30.0) -> None:
        """Block until every enqueued byte is written — and, when a
        :class:`RetryPolicy` is attached, acknowledged by the peer."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.core.busy and self.core.error is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError("flush timed out")
                self._cond.wait(min(remaining, 0.05))
            if self.core.error is not None:
                raise TransportError("sender failed") from self.core.error

    def close(self, timeout: float = 30.0) -> None:
        """Flush pending messages, then stop the sender thread."""
        try:
            self.flush(timeout)
        finally:
            with self._cond:
                self.core.closing = True
                self._cond.notify()
            self._thread.join(timeout)

    def stats(self) -> Dict[str, int]:
        """Reliability counters (zeros when no :class:`RetryPolicy`)."""
        with self._cond:
            return self.core.stats()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        core = self.core
        try:
            while True:
                with self._cond:
                    while True:
                        now = self._clock()
                        # May raise TransportError after max_retries:
                        # surfaced through send() / flush() below.
                        retrans = core.due(now)
                        burst = None if retrans else core.next_burst()
                        if retrans or burst is not None:
                            break
                        if core.closing:
                            return
                        self._cond.wait(core.timeout(now))
                # Network I/O happens outside the lock so send() callers
                # (and preempting messages) are never blocked by the wire.
                if retrans:
                    for frame in retrans:
                        self._shape(len(frame))
                        self.sock.sendall(frame)
                    continue
                frame, priority = burst
                self._shape(len(frame), priority)
                t0 = self._clock()
                self.sock.sendall(frame)
                t1 = self._clock()
                with self._cond:
                    core.wrote(t0, t1)
                    if not core.busy:
                        self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - raised by flush()
            with self._cond:
                core.error = exc
                self._cond.notify_all()

    def _shape(self, nbytes: int,
               priority: int = CONTROL_PRIORITY + 1) -> None:
        # CONTROL lane: admission/completion and ack traffic (priority <=
        # CONTROL_PRIORITY) bypasses the shaper so cluster control never
        # starves behind bulk gradients of a backlogged tenant.
        if self.shaper is not None and priority > CONTROL_PRIORITY:
            wait = self.shaper.reserve(nbytes)
            if wait > 0:
                time.sleep(wait)
