"""Asyncio transport tests (repro.live.aio.transport / .node).

Three pillars of the async substrate, each proven against the behaviour
the cluster relies on:

* **Preemption on the event loop** — an urgent message enqueued while a
  bulk transfer is mid-flight overtakes it at chunk granularity, exactly
  as on the thread stack.
* **Fail fast on a dead connection** — a write that raises fails its
  sender, reliable or not, as on the thread stack: ``failed`` turns True
  and ``flush`` raises at once, and the dial face's watchdog reports the
  node by the peer's name within one heartbeat interval.
* **Chaos parity** — the socket-less async chaos path
  (:meth:`ChaosChannel.plan_frame`) consumes the seeded draw stream
  identically to the blocking ``sendall`` path, so a fault plan
  sabotages the same frames on either substrate.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.chaos import ChaosChannel
from repro.live.aio.transport import AsyncPrioritySender
from repro.live.transport import RetryPolicy, TokenBucket
from repro.live.wire import FrameDecoder, WireKind, encode_frame
from repro.sim.faults import ChaosFault, FaultPlan

HOST = "127.0.0.1"


async def start_accept_server():
    """Listen on an ephemeral port; deliver accepted streams via a queue."""
    accepted: asyncio.Queue = asyncio.Queue()
    server = await asyncio.start_server(
        lambda r, w: accepted.put_nowait((r, w)), HOST, 0)
    port = server.sockets[0].getsockname()[1]
    return server, port, accepted


async def read_frames_until(reader, done, timeout_s=5.0):
    """Decode frames off ``reader`` until ``done(frames)`` or timeout."""
    decoder = FrameDecoder()
    frames = []
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not done(frames):
        remaining = deadline - asyncio.get_running_loop().time()
        assert remaining > 0, f"timed out with {len(frames)} frames"
        data = await asyncio.wait_for(reader.read(65536), remaining)
        assert data, "peer closed before the expected frames arrived"
        decoder.feed(data)
        frames.extend(decoder.frames())
    return frames


# ----------------------------------------------------------------------
# Async preemption
# ----------------------------------------------------------------------
@pytest.mark.asyncio
async def test_urgent_message_preempts_bulk_mid_flight():
    """A high-priority message enqueued while a shaped bulk transfer is
    in flight is written next and completes first — chunk-granular
    preemption survives the move onto the event loop."""
    server, port, accepted = await start_accept_server()
    _reader_unused, writer = None, None
    try:
        creader, cwriter = await asyncio.open_connection(HOST, port)
        sreader, swriter = await accepted.get()
        writer = swriter
        # ~1 MB/s with a one-chunk burst: the 64 KB bulk message takes
        # ~60 ms, leaving a wide window to inject the urgent message.
        shaper = TokenBucket(rate_bytes_per_s=1_000_000, burst_bytes=4096)
        sender = AsyncPrioritySender(cwriter, sender_id=0, shaper=shaper,
                                     chunk_bytes=4096)
        sender.send(WireKind.PUSH, key=1, iteration=0, priority=9,
                    payload=b"b" * 65536)
        await asyncio.sleep(0.02)  # let several bulk chunks go out
        sender.send(WireKind.PUSH, key=2, iteration=0, priority=0,
                    payload=b"u" * 2048)
        await sender.flush(10.0)

        def both_complete(frames):
            done = {f.key for f in frames if f.is_final_chunk}
            return {1, 2} <= done

        frames = await read_frames_until(sreader, both_complete)
        completions = [f.key for f in frames if f.is_final_chunk]
        assert completions == [2, 1], "urgent message must finish first"
        urgent_at = next(i for i, f in enumerate(frames) if f.key == 2)
        assert urgent_at > 0, "bulk transfer should already be in flight"
        assert any(f.key == 1 for f in frames[urgent_at:]), \
            "bulk must resume after the urgent message"
        await sender.close(5.0)
    finally:
        if writer is not None:
            writer.close()
        server.close()
        await server.wait_closed()


@pytest.mark.asyncio
async def test_flush_waits_for_the_last_chunk_to_be_written():
    """The drain task pops the last chunk, then sleeps in the shaper
    before writing it: flush() must not return in that window (the
    thread sender's test_timeline_records_every_chunk, on the loop)."""
    server, port, accepted = await start_accept_server()
    try:
        _creader, cwriter = await asyncio.open_connection(HOST, port)
        sreader, swriter = await accepted.get()
        # ~0.1 s per chunk: longer than flush()'s 50 ms poll.
        sender = AsyncPrioritySender(
            cwriter, sender_id=0, chunk_bytes=1_000,
            shaper=TokenBucket(rate_bytes_per_s=10_000, burst_bytes=1))
        sender.send(WireKind.PUSH, key=1, iteration=0, priority=0,
                    payload=b"t" * 5_500)
        await sender.flush(10.0)
        assert len(sender.timeline) == 6  # ceil(5500 / 1000)
        frames = await read_frames_until(
            sreader, lambda fs: any(f.is_final_chunk for f in fs), 1.0)
        assert sum(len(f.payload) for f in frames) == 5_500
        await sender.close(5.0)
        for writer in (cwriter, swriter):
            writer.close()
            await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()


# ----------------------------------------------------------------------
# Reliable senders and waiting helpers
# ----------------------------------------------------------------------
def _retry():
    return RetryPolicy(ack_timeout_s=0.05, backoff=1.5, max_backoff_s=0.2,
                       max_retries=100, jitter=0.0)


async def _wait_until(pred, what, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not pred():
        assert asyncio.get_running_loop().time() < deadline, \
            f"timed out waiting for {what}"
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# Chaos draw parity: plan_frame (async path) vs sendall (thread path)
# ----------------------------------------------------------------------
class RecordingSock:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(data)


def test_chaos_plan_frame_matches_sendall_byte_for_byte():
    """Both substrates consume one decision procedure: the socket-less
    ``plan_frame`` path emits exactly the payload sequence the blocking
    ``sendall`` path writes, with identical counters."""
    plan = FaultPlan((ChaosFault(machine=-1, drop_rate=0.3, dup_rate=0.25,
                                 corrupt_rate=0.25),), seed=11)
    clock = lambda: 1.0  # noqa: E731 - inside the (always-on) window
    sock = RecordingSock()
    via_sendall = ChaosChannel(sock, plan, machine=0, peer=1, epoch=0.0,
                               clock=clock)
    via_plan = ChaosChannel(None, plan, machine=0, peer=1, epoch=0.0,
                            clock=clock)
    frames = [encode_frame(WireKind.PUSH, 0, i, 0, 0,
                           payload=bytes([i % 251]) * 32)
              for i in range(300)]
    planned = []
    for frame in frames:
        via_sendall.sendall(frame)
        delay, payloads = via_plan.plan_frame(frame)
        assert delay == 0.0  # no delay fault configured
        planned.extend(payloads)
    assert sock.sent == planned
    assert via_sendall.stats() == via_plan.stats()
    # Non-vacuity: every configured sabotage actually fired.
    stats = via_plan.stats()
    assert stats["frames_dropped"] > 0
    assert stats["frames_duplicated"] > 0
    assert stats["frames_corrupted"] > 0


# ----------------------------------------------------------------------
# A dead connection and the shaper's CONTROL lane
# ----------------------------------------------------------------------
class BrokenWriter:
    """StreamWriter stand-in whose connection is already dead."""

    def __init__(self) -> None:
        self.writes = 0

    def write(self, data: bytes) -> None:
        self.writes += 1

    async def drain(self) -> None:
        raise ConnectionResetError("peer went away")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.mark.asyncio
async def test_control_lane_bypasses_shaper():
    """Frames at CONTROL_PRIORITY or below never touch the bucket: a
    tenant whose bucket is deep in debt can still ack and heartbeat."""
    from repro.live.transport import CONTROL_PRIORITY

    clock = FakeClock()
    shaper = TokenBucket(1000.0, burst_bytes=100, clock=clock)
    shaper.reserve(100_000)  # bucket owes 100 seconds of debt
    server, port, accepted = await start_accept_server()
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        sender = AsyncPrioritySender(writer, sender_id=0, shaper=shaper,
                                     chunk_bytes=4096)
        sender.send(WireKind.HEARTBEAT, -1, 0, CONTROL_PRIORITY,
                    payload=b"hb")
        await asyncio.wait_for(sender.flush(), 2.0)  # no 100 s stall
        await sender.close(1.0)
    finally:
        writer.close()
        server.close()
        await server.wait_closed()


# ----------------------------------------------------------------------
# One queued CHUNK_ACK per connection
# ----------------------------------------------------------------------
async def _connected_pair():
    """(server, client writer, server-side reader, server-side writer)."""
    server, port, accepted = await start_accept_server()
    _creader, cwriter = await asyncio.open_connection(HOST, port)
    sreader, swriter = await accepted.get()
    return server, cwriter, sreader, swriter


def _acks(frames):
    return [f.seq for f in frames if f.kind is WireKind.CHUNK_ACK]


@pytest.mark.asyncio
async def test_acks_queued_before_a_drain_step_leave_as_one():
    """N ``send_ack`` calls inside one read callback — before the drain
    task next runs — put ONE ``CHUNK_ACK`` on the wire, carrying the
    maximum; once it has left, the next call queues afresh."""
    server, cwriter, sreader, swriter = await _connected_pair()
    try:
        sender = AsyncPrioritySender(cwriter, sender_id=0)
        for cum in (3, 7, 5, -1):  # -1: nothing delivered yet, no ack
            sender.send_ack(cum)
        assert len(sender.core.sched) == 1
        sender.send(WireKind.HEARTBEAT, 0, 0, 0)  # closes the first batch
        await sender.flush(5.0)
        frames = await read_frames_until(
            sreader, lambda fs: any(f.kind is WireKind.HEARTBEAT
                                    for f in fs))
        assert _acks(frames) == [7]

        sender.send_ack(6)  # stale, but the wire is idle: it is sent
        sender.send_ack(9)
        sender.send(WireKind.HEARTBEAT, 0, 1, 0)
        await sender.flush(5.0)
        frames = await read_frames_until(
            sreader, lambda fs: any(f.kind is WireKind.HEARTBEAT
                                    for f in fs))
        assert _acks(frames) == [9]
        assert len(sender.timeline) == 4  # two acks, two heartbeats
        await sender.close(5.0)
    finally:
        for writer in (cwriter, swriter):
            writer.close()
        server.close()
        await server.wait_closed()


@pytest.mark.asyncio
async def test_closed_or_failed_sender_swallows_acks():
    """The peer's retransmission elicits a fresh ack if one is needed,
    so an ack to a sender that is closing or has failed is dropped
    without a word — before and after one was already queued."""
    from repro.live.transport import TransportError

    server, cwriter, _sreader, swriter = await _connected_pair()
    try:
        closed = AsyncPrioritySender(cwriter, sender_id=0)
        await closed.close(5.0)
        closed.send_ack(3)
        closed.send_ack(4)
        assert len(closed.core.sched) == 0
        with pytest.raises(TransportError, match="closed"):
            closed.send(WireKind.HEARTBEAT, 0, 0, 0)

        # A dead connection fails the sender outright, reliable or not:
        # flush raises at once, well inside its timeout.
        loop = asyncio.get_running_loop()
        for retry in (None, _retry()):
            failed = AsyncPrioritySender(
                BrokenWriter(), sender_id=0,
                shaper=TokenBucket(rate_bytes_per_s=1e9), retry=retry)
            failed.send_ack(1)
            start = loop.time()
            with pytest.raises(TransportError, match="sender failed") as info:
                await failed.flush(5.0)
            assert loop.time() - start < 1.0
            assert isinstance(info.value.__cause__, ConnectionResetError)
            await _wait_until(lambda: failed.failed, "the write to fail")
            failed.send_ack(2)
            with pytest.raises(TransportError, match="failed"):
                failed.send(WireKind.HEARTBEAT, 0, 0, 0)
            await failed.wait_closed()
    finally:
        for writer in (cwriter, swriter):
            writer.close()
        server.close()
        await server.wait_closed()


# ----------------------------------------------------------------------
# Burst writes
# ----------------------------------------------------------------------
@pytest.mark.asyncio
async def test_unshaped_sender_writes_bursts_and_records_every_frame():
    """An unshaped, unsabotaged sender hands the transport one write per
    burst (bounded by the transport's own high-water mark); the frames,
    their order and the one-record-per-frame timeline are unchanged, and
    every record carries its burst's write interval."""
    server, cwriter, sreader, swriter = await _connected_pair()
    try:
        writes = []
        real_write = cwriter.write
        cwriter.write = lambda data: (writes.append(len(data)),
                                      real_write(data))[1]
        high_water = cwriter.transport.get_write_buffer_limits()[1]
        sender = AsyncPrioritySender(cwriter, sender_id=0, chunk_bytes=4096,
                                     retry=_retry())
        sender.send(WireKind.PUSH, key=1, iteration=0, priority=5,
                    payload=b"b" * (3 * high_water))
        sender.send(WireKind.PUSH, key=2, iteration=0, priority=0,
                    payload=b"u" * 100)
        n_frames = 1 + -(-3 * high_water // 4096)
        frames = await read_frames_until(
            sreader, lambda fs: len(fs) >= n_frames)
        assert [f.key for f in frames] == [2] + [1] * (n_frames - 1)
        assert [f.seq for f in frames] == list(range(n_frames))
        assert len(sender.timeline) == n_frames
        assert sum(writes) == sum(r.nbytes for r in sender.timeline)
        assert len(writes) < n_frames / 4, "one write per chunk is back"
        assert max(writes) < high_water + 4096 + 40, \
            "a burst ends at the transport's high-water mark"
        intervals = {(r.start, r.end) for r in sender.timeline}
        assert len(intervals) == len(writes)
        sender.abort()
        await sender.wait_closed()
    finally:
        for writer in (cwriter, swriter):
            writer.close()
        server.close()
        await server.wait_closed()


# ----------------------------------------------------------------------
# The watchdog: a silent peer, a failed write
# ----------------------------------------------------------------------
@pytest.mark.asyncio
async def test_watchdog_fails_the_node_when_a_peer_goes_silent(monkeypatch):
    """A shard that accepts and never answers — no ack, no value, no
    heartbeat reply — is a dead peer: the worker's watchdog must fail it
    with an error naming ``server0`` within ``peer_timeout_s`` plus one
    heartbeat interval, not leave it to the 60 s round timeout.  A write
    to the shard that fails is reported the same way, by name, within
    one heartbeat interval: it does not wait out ``peer_timeout_s``."""
    from repro.live import LiveClusterConfig, LiveWorkerError
    from repro.live.aio import AioWorker

    async def reset_drain(_writer):
        raise ConnectionResetError("peer went away")

    # (peer_timeout_s, whether the worker's writes fail, expected error)
    cases = [(0.3, False, "no bytes from server0 .* peer dead"),
             (5.0, True, "transport to server0 failed")]
    for peer_timeout_s, write_fails, expected in cases:
        cfg = LiveClusterConfig(
            n_workers=1, n_servers=1, iterations=2, batch_size=4,
            in_size=4, hidden=4, depth=1, n_train=8, n_val=4,
            fwd_layer_s=0.0, bwd_layer_s=0.0, heartbeat_interval_s=0.05,
            peer_timeout_s=peer_timeout_s)
        mute = []  # accepted, held open, never read from or written to
        server = await asyncio.start_server(
            lambda r, w: mute.append((r, w)), HOST, 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        try:
            with monkeypatch.context() as patch:
                if write_fails:
                    patch.setattr(asyncio.StreamWriter, "drain", reset_drain)
                worker = AioWorker(0, cfg, cfg.key_plan(), loop.time())
                start = loop.time()
                with pytest.raises(LiveWorkerError, match=expected):
                    await worker.run([(HOST, port)])
                elapsed = loop.time() - start
            assert mute, "the listener must have accepted the connection"
            # + 0.25 s: loaded CI boxes stretch every sleep and the teardown
            limit = cfg.heartbeat_interval_s + 0.25
            if not write_fails:
                assert elapsed >= cfg.peer_timeout_s
                limit += cfg.peer_timeout_s
            assert elapsed < limit, f"took {elapsed:.2f}s"
            pending = [t.get_name() for t in asyncio.all_tasks()
                       if t is not asyncio.current_task() and not t.done()]
            assert pending == []
        finally:
            for _reader, writer in mute:
                writer.close()
            server.close()
            await server.wait_closed()
