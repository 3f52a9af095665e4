"""Transport tests: token-bucket shaping math (fake clock), property
tests of the pure scheduling core (:class:`ChunkScheduler`) and of the
sender state machine around it (:class:`SenderCore`, against a
written-out Go-Back-N + priority reference), and genuine priority
preemption on a rate-shaped loopback socket pair."""

from __future__ import annotations

import heapq
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveClusterConfig
from repro.live.transport import (
    CONTROL_PRIORITY,
    ChunkRecord,
    ChunkScheduler,
    PrioritySender,
    RetryPolicy,
    SenderCore,
    TokenBucket,
    TransportError,
    goodput_bytes_per_s,
    timeline_utilization,
)
from repro.live.wire import (HEADER_SIZE, MAX_FRAME_PAYLOAD, SEQ_NONE,
                             FrameDecoder, Reassembler, WireKind)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_bucket_burst_passes_without_wait():
    clock = FakeClock()
    bucket = TokenBucket(1000.0, burst_bytes=500, clock=clock)
    assert bucket.reserve(500) == 0.0


def test_bucket_debt_forces_wait():
    clock = FakeClock()
    bucket = TokenBucket(1000.0, burst_bytes=500, clock=clock)
    bucket.reserve(500)                       # drain the burst
    assert bucket.reserve(1000) == pytest.approx(1.0)


def test_bucket_refills_with_time():
    clock = FakeClock()
    bucket = TokenBucket(1000.0, burst_bytes=500, clock=clock)
    bucket.reserve(500)
    clock.t = 0.25                            # +250 tokens
    assert bucket.reserve(250) == 0.0
    assert bucket.reserve(100) == pytest.approx(0.1)


def test_bucket_never_exceeds_burst():
    clock = FakeClock()
    bucket = TokenBucket(1000.0, burst_bytes=100, clock=clock)
    clock.t = 1000.0                          # a long idle period
    assert bucket.reserve(100) == 0.0
    assert bucket.reserve(100) == pytest.approx(0.1)


def test_bucket_validates_args():
    with pytest.raises(ValueError):
        TokenBucket(0.0)
    with pytest.raises(ValueError):
        TokenBucket(100.0).reserve(-1)


# ----------------------------------------------------------------------
# ChunkScheduler property tests (hypothesis): the sender's scheduling
# core with no sockets, threads, or clocks.
# ----------------------------------------------------------------------
#: One message spec: (priority, payload size in bytes).
message_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=300)),
    min_size=1, max_size=20)


class SchedulerModel:
    """Reference model mirrored against the real scheduler.

    Tracks, per message key, the expected next offset and collected
    chunk bytes, and computes which message *must* come out of the next
    pop: the minimal ``(priority, enqueue order)`` among those pending.
    """

    def __init__(self):
        self.pending = {}   # key -> (priority, enqueue_seq, payload, offset)
        self.collected = {}  # key -> bytearray of chunk bytes, in order
        self.done_keys = []
        self._seq = 0

    def push(self, key, priority, payload):
        self.pending[key] = (priority, self._seq, payload, 0)
        self.collected[key] = bytearray()
        self._seq += 1

    def expected_next(self):
        return min(self.pending, key=lambda k: self.pending[k][:2])

    def take_chunk(self, key, chunk, offset, done, chunk_bytes):
        priority, seq, payload, model_offset = self.pending[key]
        assert offset == model_offset, \
            f"key {key}: chunk at offset {offset}, expected {model_offset}"
        assert chunk == payload[offset:offset + chunk_bytes]
        assert len(chunk) <= chunk_bytes
        self.collected[key] += chunk
        new_offset = offset + len(chunk)
        if done:
            assert new_offset >= len(payload)
            assert bytes(self.collected[key]) == payload, \
                f"key {key}: reassembled payload differs (drop/duplicate)"
            del self.pending[key]
            self.done_keys.append(key)
        else:
            assert new_offset < len(payload)
            self.pending[key] = (priority, seq, payload, new_offset)


def drive(sched, model):
    """Drain the scheduler, checking every pop against the model."""
    while len(sched):
        expected_key = model.expected_next()
        item, chunk, offset, done, preempted = sched.pop_chunk()
        assert item.key == expected_key, (
            f"popped key {item.key}, but most urgent pending message is "
            f"{expected_key}: (priority, FIFO) order violated")
        if preempted is not None:
            assert preempted.key in model.pending, \
                "a preempted message must stay queued, never be dropped"
            assert preempted is not item
        model.take_chunk(item.key, chunk, offset, done, sched.chunk_bytes)
    assert sched.pop_chunk() is None


@given(specs=message_specs, chunk_bytes=st.sampled_from([1, 7, 64, 512]))
@settings(max_examples=150, deadline=None)
def test_scheduler_orders_by_priority_then_fifo(specs, chunk_bytes):
    """Fully drain a batch of pushes: every pop yields a chunk of the
    most urgent pending message, chunks arrive in offset order, and
    every payload is reassembled exactly once with no gaps."""
    sched = ChunkScheduler(chunk_bytes=chunk_bytes)
    model = SchedulerModel()
    for key, (priority, size) in enumerate(specs):
        payload = bytes([key % 251]) * size
        sched.push(WireKind.PUSH, key, 0, priority, payload)
        model.push(key, priority, payload)
    drive(sched, model)
    assert sorted(model.done_keys) == list(range(len(specs)))


@given(specs=message_specs,
       pops_between=st.lists(st.integers(min_value=0, max_value=4),
                             min_size=1, max_size=20),
       chunk_bytes=st.sampled_from([1, 7, 64]))
@settings(max_examples=150, deadline=None)
def test_scheduler_preemption_never_loses_chunks(specs, pops_between,
                                                 chunk_bytes):
    """Interleave pushes with pops so late urgent messages preempt
    in-flight bulk ones: no chunk is ever dropped or duplicated, and a
    preempted message always resumes from its exact offset."""
    sched = ChunkScheduler(chunk_bytes=chunk_bytes)
    model = SchedulerModel()
    for key, (priority, size) in enumerate(specs):
        payload = bytes([key % 251]) * size
        sched.push(WireKind.PUSH, key, 0, priority, payload)
        model.push(key, priority, payload)
        n_pops = pops_between[key % len(pops_between)]
        for _ in range(n_pops):
            if not len(sched):
                break
            expected_key = model.expected_next()
            item, chunk, offset, done, preempted = sched.pop_chunk()
            assert item.key == expected_key
            if preempted is not None:
                assert preempted.key in model.pending
            model.take_chunk(item.key, chunk, offset, done, chunk_bytes)
    drive(sched, model)  # drain whatever the interleaving left behind
    assert sorted(model.done_keys) == list(range(len(specs)))
    assert not model.pending


def test_scheduler_reports_preemption_of_in_flight_message():
    sched = ChunkScheduler(chunk_bytes=4)
    sched.push(WireKind.PUSH, key=1, iteration=0, priority=5,
               payload=b"bulkbulk")
    item, _, _, done, preempted = sched.pop_chunk()
    assert item.key == 1 and not done and preempted is None
    sched.push(WireKind.PUSH, key=2, iteration=0, priority=0,
               payload=b"hi")
    item, chunk, _, done, preempted = sched.pop_chunk()
    assert item.key == 2 and done and chunk == b"hi"
    assert preempted is not None and preempted.key == 1
    # The interrupted bulk message resumes from byte 4, untouched.
    item, chunk, offset, done, preempted = sched.pop_chunk()
    assert (item.key, chunk, offset, done) == (1, b"bulk", 4, True)
    assert preempted is None


class PopRepushScheduler:
    """The rule ``ChunkScheduler`` had before it advanced the heap's
    head in place, written out: pop the least ``(priority, enqueue
    order)``, cut its next chunk, push it back unless that was its last."""

    def __init__(self, chunk_bytes):
        self.chunk_bytes, self.heap, self.msgs = chunk_bytes, [], {}
        self.seq, self.last = 0, None

    def push(self, kind, key, priority, payload):
        self.msgs[self.seq] = dict(kind=kind, key=key, payload=payload,
                                   offset=0)
        heapq.heappush(self.heap, (priority, self.seq))
        self.seq += 1

    def pop_chunk(self):
        if not self.heap:
            return None
        entry = heapq.heappop(self.heap)
        msg = self.msgs[entry[1]]
        offset = msg["offset"]
        chunk = msg["payload"][offset:offset + self.chunk_bytes]
        done = offset + len(chunk) >= len(msg["payload"])
        last = self.last
        preempted = (last["key"] if last is not None and last is not msg
                     and last["offset"] < len(last["payload"]) else None)
        msg["offset"] += len(chunk)
        if not done:
            heapq.heappush(self.heap, entry)
        self.last = msg
        return msg["key"], offset, len(chunk), done, preempted

scheduler_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.sampled_from([WireKind.PUSH, WireKind.CHUNK_ACK]),
                  st.integers(min_value=-2, max_value=4),   # priority
                  st.integers(min_value=0, max_value=40)),  # payload size
        st.tuples(st.just("pop"), st.integers(min_value=1, max_value=6))),
    min_size=1, max_size=60)


@given(ops=scheduler_ops, chunk_bytes=st.sampled_from([1, 5, 16]))
@settings(max_examples=300, deadline=None)
def test_scheduler_matches_the_pop_and_repush_rule(ops, chunk_bytes):
    """Any interleaving of pushes and pops yields the chunk
    sequence pop-and-re-push yields — key, offset, length, ``done`` and
    the preempted key — then drains to the same end."""
    sched, model = ChunkScheduler(chunk_bytes), PopRepushScheduler(chunk_bytes)

    def pop_both():
        popped, expected = sched.pop_chunk(), model.pop_chunk()
        if expected is None:
            assert popped is None
            return False
        item, chunk, offset, done, preempted = popped
        assert (item.key, offset, len(chunk), done,
                None if preempted is None else preempted.key) == expected
        return True

    key = 0
    for op in ops:
        if op[0] == "push":
            _, kind, priority, size = op
            payload = bytes([key % 251]) * size
            sched.push(kind, key, 0, priority, payload)
            model.push(kind, key, priority, payload)
            key += 1
        else:
            for _ in range(op[1]):
                pop_both()
        assert len(sched) == len(model.heap)
    while pop_both():
        pass
    assert len(sched) == 0


def test_scheduler_validates_chunk_bytes():
    with pytest.raises(ValueError):
        ChunkScheduler(chunk_bytes=0)


def test_scheduler_refuses_chunks_over_the_frame_cap():
    """A chunk over ``MAX_FRAME_PAYLOAD`` used to be accepted, then fail
    the first large message mid-drain with a ``WireError``."""
    ChunkScheduler(chunk_bytes=MAX_FRAME_PAYLOAD)
    with pytest.raises(ValueError, match="exceeds MAX_FRAME_PAYLOAD"):
        ChunkScheduler(chunk_bytes=MAX_FRAME_PAYLOAD + 1)
    with pytest.raises(ValueError, match="exceeds MAX_FRAME_PAYLOAD"):
        SenderCore(0, chunk_bytes=8 << 20)


def test_live_config_refuses_chunks_over_the_frame_cap():
    LiveClusterConfig(chunk_bytes=MAX_FRAME_PAYLOAD)
    with pytest.raises(ValueError, match="chunk_bytes 8388608 exceeds"):
        LiveClusterConfig(chunk_bytes=8 << 20)


# ----------------------------------------------------------------------
# SenderCore: the sender state machine with no socket, thread or loop
# ----------------------------------------------------------------------
def frames_of(data: bytes):
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())


class SenderReference:
    """Go-Back-N + strict priority, written out the slow way.

    ``queue`` holds unfinished messages as dicts; the next chunk always
    comes from the minimal ``(priority, enqueue order)``.  ``unacked``
    is the retransmission backlog, ``(seq, kind, key, offset, chunk)``
    in seq order.  At most one ``CHUNK_ACK`` message is ever queued.
    """

    def __init__(self, chunk_bytes, reliable):
        self.chunk_bytes, self.reliable = chunk_bytes, reliable
        self.queue, self.unacked = [], []
        self.order = self.next_seq = 0
        self.sent = []  # every frame handed to the host, in order

    def send(self, kind, key, priority, payload, ack_seq=SEQ_NONE):
        self.queue.append(dict(kind=kind, key=key, priority=priority,
                               order=self.order, payload=payload, offset=0,
                               ack_seq=ack_seq))
        self.order += 1

    def send_ack(self, cum):
        if cum < 0:
            return False
        for msg in self.queue:
            if msg["kind"] is WireKind.CHUNK_ACK:
                msg["ack_seq"] = max(msg["ack_seq"], cum)
                return False
        self.send(WireKind.CHUNK_ACK, -1, CONTROL_PRIORITY, b"", cum)
        return True

    def handle_ack(self, upto):
        before = len(self.unacked)
        self.unacked = [f for f in self.unacked if f[0] > upto]
        return len(self.unacked) < before

    def next_burst(self, limit):
        """The frames of one burst: ``(seq, kind, key, offset, chunk)``."""
        burst, gathered = [], 0
        while self.queue and (not burst or gathered < limit):
            msg = min(self.queue, key=lambda m: (m["priority"], m["order"]))
            offset = msg["offset"]
            chunk = msg["payload"][offset:offset + self.chunk_bytes]
            msg["offset"] += len(chunk)
            if msg["offset"] >= len(msg["payload"]):
                self.queue.remove(msg)
            sequenced = self.reliable and msg["kind"] is WireKind.PUSH
            seq = self.next_seq if sequenced else msg["ack_seq"]
            frame = (seq, msg["kind"], msg["key"], offset, chunk)
            if sequenced:
                self.next_seq += 1
                self.unacked.append(frame)
            burst.append(frame)
            gathered += HEADER_SIZE + len(chunk)
        self.sent += burst
        return burst


def as_tuples(frames):
    return [(f.seq, f.kind, f.key, f.offset, f.payload) for f in frames]


sender_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from((WireKind.PUSH,
                                                    WireKind.HEARTBEAT)),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("send_ack"), st.integers(min_value=-1,
                                                   max_value=40)),
        st.tuples(st.just("handle_ack"), st.integers(min_value=-2,
                                                     max_value=6)),
        st.tuples(st.just("burst"), st.sampled_from((0, 100, 400))),
        st.tuples(st.just("expire"))),
    min_size=1, max_size=60)


@given(ops=sender_ops, chunk_bytes=st.sampled_from([16, 64]),
       reliable=st.booleans())
@settings(max_examples=300, deadline=None)
def test_sender_core_matches_the_go_back_n_priority_reference(
        ops, chunk_bytes, reliable):
    """Sends, acks (both directions), timer expiries and bursts of
    every limit, in any order: the frames the core hands its
    host — order, seqs, offsets, bytes — the retransmission backlog, the
    single queued ack and ``busy`` all match the reference; every frame
    written gets exactly one record."""
    clock = FakeClock()
    policy = RetryPolicy(ack_timeout_s=0.1, jitter=0.0,
                         max_retries=10 ** 6) if reliable else None
    core = SenderCore(5, chunk_bytes, clock, retry=policy)
    ref = SenderReference(chunk_bytes, reliable)
    key = 0
    for op in ops:
        if op[0] == "send":
            payload = bytes([key % 251]) * op[3]
            core.send(op[1], key, 0, op[2], payload)
            ref.send(op[1], key, op[2], payload)
            key += 1
        elif op[0] == "send_ack":
            assert core.send_ack(op[1]) == ref.send_ack(op[1])
        elif op[0] == "handle_ack":
            # Relative to the oldest unacked seq, so acks land around it.
            upto = (ref.unacked[0][0] if ref.unacked else 0) + op[1]
            assert core.handle_ack(upto) == ref.handle_ack(upto)
        elif op[0] == "burst":
            want = ref.next_burst(op[1])
            got = core.next_burst(op[1])
            if not want:
                assert got is None
                continue
            data, _priority = got
            assert as_tuples(frames_of(data)) == want
            assert core.busy, "a burst not yet wrote() is still in flight"
            core.wrote(clock.t, clock.t + 1.0)
        else:
            # Arm the timer, outlast any backoff: Go-Back-N resends the
            # whole backlog, in seq order.
            assert (core.timeout(clock.t) is None) == (not ref.unacked)
            clock.t += 1_000.0
            resent = [f for data in core.due(clock.t)
                      for f in frames_of(data)]
            assert as_tuples(resent) == ref.unacked
        assert len(core.sched) == len(ref.queue)
        assert core.stats()["unacked_frames"] == len(ref.unacked)
        assert core.busy == bool(ref.queue or ref.unacked)
        assert [(r.kind, r.key, r.nbytes) for r in core.timeline] == \
            [(int(kind), key_, HEADER_SIZE + len(chunk))
             for _seq, kind, key_, _offset, chunk in ref.sent]


def test_sender_core_refuses_sends_once_closing_or_failed():
    core = SenderCore(0)
    core.closing = True
    with pytest.raises(TransportError, match="closed"):
        core.send(WireKind.HEARTBEAT, 0, 0, 0)
    assert core.send_ack(3) is False and not core.busy
    core.closing, core.error = False, OSError("wire fell out")
    with pytest.raises(TransportError, match="failed"):
        core.send(WireKind.HEARTBEAT, 0, 0, 0)
    assert core.send_ack(3) is False and not core.busy


# ----------------------------------------------------------------------
# PrioritySender on a real (shaped) loopback link
# ----------------------------------------------------------------------
def drain(sock: socket.socket, n_messages: int, timeout: float = 30.0):
    """Read messages off a socket; return (messages, frame completion order)."""
    sock.settimeout(timeout)
    decoder = FrameDecoder()
    reassembler = Reassembler()
    messages, completions = [], []
    while len(messages) < n_messages:
        data = sock.recv(65536)
        if not data:
            break
        decoder.feed(data)
        for frame in decoder.frames():
            msg = reassembler.add(frame)
            if msg is not None:
                messages.append(msg)
                completions.append(msg.key)
    return messages, completions


def test_priority_preemption_on_shaped_link():
    """An urgent slice enqueued mid-transfer must finish before the bulk
    transfer it preempted — the live analogue of the paper's Figure 4."""
    left, right = socket.socketpair()
    try:
        bucket = TokenBucket(400_000.0, burst_bytes=4_096)
        sender = PrioritySender(left, sender_id=0, shaper=bucket,
                                chunk_bytes=2_048)
        # Bulk message: low priority (9), ~80 KiB => ~0.2 s on the wire.
        sender.send(WireKind.PUSH, key=100, iteration=0, priority=9,
                    payload=b"L" * 80_000)
        time.sleep(0.01)  # let the bulk transfer get onto the wire
        # Urgent message lands while the bulk transfer is in flight.
        sender.send(WireKind.PUSH, key=7, iteration=0, priority=0,
                    payload=b"H" * 4_000)
        messages, completions = drain(right, 2)
        assert completions == [7, 100], \
            "urgent slice must complete before the preempted bulk transfer"
        payloads = {m.key: m.payload for m in messages}
        assert payloads[7] == b"H" * 4_000
        assert payloads[100] == b"L" * 80_000
        sender.close()
    finally:
        left.close()
        right.close()


def test_fifo_when_priorities_equal():
    left, right = socket.socketpair()
    try:
        sender = PrioritySender(left, sender_id=1, chunk_bytes=1_024)
        for key in range(5):
            sender.send(WireKind.PUSH, key=key, iteration=0, priority=3,
                        payload=bytes([key]) * 2_000)
        _, completions = drain(right, 5)
        assert completions == [0, 1, 2, 3, 4]
        sender.close()
    finally:
        left.close()
        right.close()


def test_control_priority_jumps_all_queues():
    left, right = socket.socketpair()
    try:
        bucket = TokenBucket(400_000.0, burst_bytes=2_048)
        sender = PrioritySender(left, sender_id=2, shaper=bucket,
                                chunk_bytes=1_024)
        sender.send(WireKind.PUSH, key=50, iteration=0, priority=0,
                    payload=b"x" * 40_000)
        sender.send(WireKind.HEARTBEAT, key=0, iteration=1,
                    priority=CONTROL_PRIORITY)
        _, completions = drain(right, 2)
        assert completions[0] == 0, "heartbeat must not queue behind data"
        sender.close()
    finally:
        left.close()
        right.close()


class GatedSock:
    """``sendall`` blocks until the gate opens; keeps what was sent."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.sent = []

    def sendall(self, data: bytes) -> None:
        self.entered.set()
        assert self.gate.wait(10.0)
        self.sent.append(data)


def test_thread_host_keeps_one_queued_ack():
    """Acks queued while the sender thread is busy writing leave as ONE
    ``CHUNK_ACK`` carrying the maximum — the thread host runs the same
    core as the cluster's asyncio sender (it used to send all three)."""
    sock = GatedSock()
    sender = PrioritySender(sock, sender_id=0)
    sender.send(WireKind.HEARTBEAT, 0, 0, 0)
    assert sock.entered.wait(10.0)  # the thread is inside sendall()
    for cum in (3, 7, 5):
        sender.send_ack(cum)
    sock.gate.set()
    sender.close(10.0)
    frames = [f for data in sock.sent for f in frames_of(data)]
    assert [f.kind for f in frames] == [WireKind.HEARTBEAT,
                                        WireKind.CHUNK_ACK]
    assert frames[1].seq == 7
    assert len(sender.timeline) == 2


def test_timeline_records_every_chunk():
    left, right = socket.socketpair()
    # A tiny switch interval lands the flush() between the last chunk's
    # write and its record: flush must wait for the record too.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sender = PrioritySender(left, sender_id=0, chunk_bytes=1_000)
        sender.send(WireKind.PUSH, key=1, iteration=0, priority=0,
                    payload=b"t" * 5_500)
        drain(right, 1)
        sender.flush()
        assert len(sender.timeline) == 6  # ceil(5500 / 1000)
        starts = [r.start for r in sender.timeline]
        assert starts == sorted(starts)
        assert sum(r.nbytes for r in sender.timeline) > 5_500  # + headers
        trace = timeline_utilization(sender.timeline)
        assert trace.total_bytes(0, "tx") == sum(r.nbytes
                                                 for r in sender.timeline)
        assert goodput_bytes_per_s(sender.timeline) > 0
        sender.close()
    finally:
        sys.setswitchinterval(interval)
        left.close()
        right.close()


def test_goodput_counts_data_payload_only():
    """Headers and control frames are wire bytes, not goodput; the span
    is first write to last write over every record."""
    records = [
        ChunkRecord(0, int(WireKind.PUSH), 1, 0, 0, 0.0, 1.0,
                    HEADER_SIZE + 1000),
        ChunkRecord(0, int(WireKind.PUSH), 1, 0, 0, 1.0, 2.0,
                    HEADER_SIZE + 500),
        ChunkRecord(0, int(WireKind.CHUNK_ACK), -1, 0, CONTROL_PRIORITY,
                    2.0, 3.0, HEADER_SIZE),
    ]
    assert goodput_bytes_per_s(records) == pytest.approx(1500 / 3.0)
    assert timeline_utilization(records).total_bytes(0, "tx") == \
        3 * HEADER_SIZE + 1500


def test_shaped_goodput_near_configured_rate():
    """The bucket holds long-run goodput near the configured rate."""
    left, right = socket.socketpair()
    try:
        rate = 1_000_000.0
        sender = PrioritySender(left, sender_id=0,
                                shaper=TokenBucket(rate, burst_bytes=8_192),
                                chunk_bytes=4_096)
        sender.send(WireKind.PUSH, key=1, iteration=0, priority=0,
                    payload=b"g" * 200_000)
        drain(right, 1)
        sender.flush()
        measured = goodput_bytes_per_s(sender.timeline)
        assert 0.5 * rate < measured < 2.0 * rate
        sender.close()
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# Scheduling-core property battery (shared by the threaded and asyncio
# senders: AsyncPrioritySender drives this exact ChunkScheduler +
# TokenBucket pair, so these properties pin both substrates).
# ----------------------------------------------------------------------
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("reserve"),
                  st.integers(min_value=0, max_value=5_000)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=2.0,
                            allow_nan=False, allow_infinity=False))),
    min_size=1, max_size=40),
       rate=st.sampled_from([100.0, 1_000.0, 250_000.0]),
       burst=st.sampled_from([1, 100, 4_096]))
@settings(max_examples=200, deadline=None)
def test_token_bucket_conserves_bytes(ops, rate, burst):
    """Conservation law: however reserves and idle periods interleave,
    the bucket never grants more than ``burst + rate * elapsed`` bytes —
    the shaped link cannot be overdrawn, with or without preemption."""
    clock = FakeClock()
    bucket = TokenBucket(rate, burst_bytes=burst, clock=clock)
    granted = 0
    for op, value in ops:
        if op == "advance":
            clock.t += value
        else:
            wait = bucket.reserve(value)
            assert wait >= 0.0
            clock.t += wait  # the sender sleeps exactly this long
            granted += value
        assert granted <= burst + rate * clock.t + 1e-6, (
            f"bucket overdrawn: granted {granted} bytes but only "
            f"{burst + rate * clock.t:.1f} were available")


#: Adversarial streams: many urgent (low value) priorities arriving
#: late, bulk messages early — the pattern that starves naive queues.
adversarial_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=200)),
    min_size=2, max_size=24)


@given(specs=adversarial_specs,
       pops_between=st.lists(st.integers(min_value=0, max_value=3),
                             min_size=1, max_size=24),
       chunk_bytes=st.sampled_from([1, 16, 128]))
@settings(max_examples=150, deadline=None)
def test_scheduler_is_starvation_free_within_a_priority_class(
        specs, pops_between, chunk_bytes):
    """Starvation-freedom: once arrivals stop, every message completes;
    and within one priority class completion order equals enqueue order
    (a message is only ever bypassed by *strictly* more urgent traffic,
    never by an equal-priority later arrival)."""
    sched = ChunkScheduler(chunk_bytes=chunk_bytes)
    completions = []
    push_order = {}  # priority class -> keys in enqueue order
    for key, (priority, size) in enumerate(specs):
        sched.push(WireKind.PUSH, key, 0, priority, b"x" * size)
        push_order.setdefault(priority, []).append((key, priority))
        for _ in range(pops_between[key % len(pops_between)]):
            popped = sched.pop_chunk()
            if popped is None:
                break
            item, _, _, done, _ = popped
            if done:
                completions.append((item.key, item.priority))
    while len(sched):  # arrivals stopped: drain to empty
        item, _, _, done, _ = sched.pop_chunk()
        if done:
            completions.append((item.key, item.priority))
    assert sorted(k for k, _ in completions) == list(range(len(specs))), \
        "a message starved: never completed after arrivals stopped"
    for priority, expected in push_order.items():
        got = [c for c in completions if c[1] == priority]
        assert got == expected, (
            f"priority {priority}: completion order {got} != enqueue "
            f"order {expected} — intra-class FIFO (bounded bypass) broken")
