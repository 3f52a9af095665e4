"""The live data plane's codec paths, each held to the frame-at-a-time
rule it replaced.

* :meth:`SenderCore.next_burst` encodes each message's share of a burst
  as one run (:func:`encode_run`); a chunk-at-a-time core, written out
  here with a test-local frame encoder, must hand its host the same
  bytes and leave the same outbox entries, ``ChunkRecord``\\ s and obs
  events.
* :meth:`FrameDecoder.frames` decodes in one pass with one combined
  header test; the decoder it replaced, kept here verbatim, must yield
  the same frames, skip counts, pending bytes and ``WireError``
  messages on any cut of any stream, corrupted or not.
* :meth:`Reassembler.add` extends an in-order message's one run
  directly and joins chunks in offset order whatever order they came.

Every property is derandomized.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.transport import (
    CONTROL_PRIORITY,
    DATA_KINDS,
    RELIABLE_KINDS,
    ChunkRecord,
    RetryPolicy,
    SenderCore,
)
from repro.live.wire import (
    HEADER_FMT,
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    MAX_MESSAGE_BYTES,
    SEQ_NONE,
    VERSION,
    Frame,
    FrameDecoder,
    Reassembler,
    WireError,
    WireKind,
    encode_frame,
    split_message,
)
from repro.obs.events import EventKind, EventRecorder

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

_HEADER = struct.Struct(HEADER_FMT)
_PATTERN = bytes(range(256)) * 64


def reference_frame(kind, sender, key, iteration, priority, chunk, offset,
                    total, seq) -> bytes:
    """One v2 frame, packed field by field (the format's definition)."""
    head = _HEADER.pack(MAGIC, VERSION, kind, 0, sender, key, iteration,
                        priority, offset, total, len(chunk), seq, 0)
    crc = zlib.crc32(bytes(chunk), zlib.crc32(head[:HEADER_SIZE - 4]))
    return head[:HEADER_SIZE - 4] + struct.pack("<I", crc) + bytes(chunk)


def payload_of(key: int, size: int) -> bytes:
    """Distinct bytes per message, so a misplaced chunk changes a CRC."""
    out = b""
    while len(out) < size:
        start = (key * 37 + len(out)) % 256
        out += _PATTERN[start:start + size - len(out)]
    return out


# ----------------------------------------------------------------------
# Send: one run per message against one frame per chunk
# ----------------------------------------------------------------------
class ChunkAtATimeCore(SenderCore):
    """``SenderCore`` as it was before runs: pop one chunk, encode it,
    record it, emit, and ask again while the burst is under ``limit``;
    ``wrote`` walks one ``(item, done, nbytes)`` entry per frame."""

    def next_burst(self, limit: int = 0):
        frames, gathered = [], 0
        popped = self.sched.pop_chunk()
        while popped is not None:
            item, chunk, offset, done, preempted = popped
            if item is self._queued_ack:
                self._queued_ack = None
            reliable = self.reliable and item.kind in RELIABLE_KINDS
            seq = self._next_seq if reliable else item.ack_seq
            frame = reference_frame(item.kind, self.sender_id, item.key,
                                    item.iteration, item.priority, chunk,
                                    offset, len(item.payload), seq)
            if reliable:
                self._next_seq += 1
                self.outbox.record(seq, frame, self._clock())
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
            self._burst.append((item, done, len(frame)))
            gathered += len(frame)
            popped = self.sched.pop_chunk() if gathered < limit else None
        return (b"".join(frames), item.priority) if frames else None

    def wrote(self, t0: float, t1: float) -> None:
        gathered = sum(nbytes for _, _, nbytes in self._burst)
        for item, done, nbytes in self._burst:
            item.wire_s += (t1 - t0) * nbytes / gathered
            self.timeline.append(ChunkRecord(
                self.sender_id, int(item.kind), item.key, item.iteration,
                item.priority, t0, t1, nbytes))
            if (done and self.recorder is not None
                    and item.kind in DATA_KINDS):
                queue_s = max(0.0, (t1 - item.enqueue_ts) - item.wire_s)
                self.recorder.emit(
                    EventKind.SLICE_SENT, node=self.node, ts=t1,
                    key=item.key, iteration=item.iteration,
                    priority=item.priority, nbytes=len(item.payload),
                    queue_s=queue_s, wire_s=item.wire_s,
                    detail=item.kind.name.lower())
        self._burst.clear()


class FixedClock:
    """Stands still between reads; the test moves it."""

    def __init__(self) -> None:
        self.t = 1.0

    def __call__(self) -> float:
        return self.t


def chunk_sizes(chunk_bytes: int):
    """Payload sizes around the chunk grid: empty, exact multiples and
    one byte either side of them, and anything up to five chunks."""
    return st.one_of(
        st.just(0),
        st.integers(1, 5).map(lambda n: n * chunk_bytes),
        st.integers(1, 5).map(lambda n: n * chunk_bytes - 1),
        st.integers(1, 4).map(lambda n: n * chunk_bytes + 1),
        st.integers(0, 5 * chunk_bytes))


@st.composite
def sender_scenarios(draw):
    chunk_bytes = draw(st.sampled_from([16, 100, 1024, 8192]))
    op = st.one_of(
        st.tuples(st.just("send"),
                  st.sampled_from([WireKind.PUSH, WireKind.PULL_RESP,
                                   WireKind.HEARTBEAT, WireKind.BYE]),
                  st.integers(-2, 6), chunk_sizes(chunk_bytes)),
        st.tuples(st.just("send_ack"), st.integers(-1, 50)),
        st.tuples(st.just("handle_ack"), st.integers(-1, 30)),
        st.tuples(st.just("burst"),
                  st.one_of(st.just(0), st.integers(0, 256 * 1024))),
        st.tuples(st.just("tick"), st.floats(0.0, 0.5)))
    ops = draw(st.lists(op, min_size=1, max_size=40))
    return chunk_bytes, draw(st.booleans()), ops


@SETTINGS
@given(scenario=sender_scenarios())
def test_run_encoder_matches_one_frame_per_chunk(scenario):
    """Any interleaving of sends (data, control, barrier; empty, exact
    multiples of the chunk and not), queued acks, peer acks and bursts
    of 0 to 256 KiB, reliable or not, under a fixed clock: the burst's
    bytes and priority, the outbox's ``(seq, frame)`` entries, every
    ``ChunkRecord`` and the ``slice_*`` events are the reference's."""
    chunk_bytes, reliable, ops = scenario
    clock = FixedClock()
    policy = (RetryPolicy(ack_timeout_s=0.1, jitter=0.0,
                          max_retries=10 ** 6) if reliable else None)
    cores = [cls(3, chunk_bytes, clock,
                 recorder=EventRecorder("live", clock=clock), node="w3",
                 retry=policy)
             for cls in (SenderCore, ChunkAtATimeCore)]
    key = 0
    for op in ops:
        if op[0] == "send":
            _, kind, priority, size = op
            payload = payload_of(key, size)
            for core in cores:
                core.send(kind, key, key % 3, priority, payload)
            key += 1
        elif op[0] == "send_ack":
            assert len({core.send_ack(op[1]) for core in cores}) == 1
        elif op[0] == "handle_ack":
            assert len({core.handle_ack(op[1]) for core in cores}) == 1
        elif op[0] == "burst":
            got, want = (core.next_burst(op[1]) for core in cores)
            assert got == want
            if got is not None:
                for core in cores:
                    core.wrote(clock.t, clock.t + 0.25)
        else:
            clock.t += op[1]
        new, ref = cores
        assert list(new.outbox._pending) == list(ref.outbox._pending)
        assert new.timeline == ref.timeline
        assert new.recorder.to_dicts() == ref.recorder.to_dicts()
        assert new.busy == ref.busy and len(new.sched) == len(ref.sched)


@SETTINGS
@given(kind=st.sampled_from(list(WireKind)),
       sender=st.integers(-(2 ** 15), 2 ** 15 - 1),
       key=st.integers(-(2 ** 31), 2 ** 31 - 1),
       priority=st.integers(CONTROL_PRIORITY, 2 ** 30),
       size=st.integers(0, 3000), chunk_bytes=st.integers(1, 1100),
       seq=st.sampled_from([0, 7, SEQ_NONE]))
def test_encode_frame_and_split_message_frame_like_the_definition(
        kind, sender, key, priority, size, chunk_bytes, seq):
    payload = payload_of(key, size)
    assert encode_frame(kind, sender, key, 4, priority, payload,
                        offset=2, total=size + 5, seq=seq) == \
        reference_frame(kind, sender, key, 4, priority, payload, 2,
                        size + 5, seq)
    want = [reference_frame(kind, sender, key, 4, priority,
                            payload[at:at + chunk_bytes], at, size, SEQ_NONE)
            for at in range(0, max(size, 1), chunk_bytes)]
    assert split_message(kind, sender, key, 4, priority, payload,
                         chunk_bytes) == want


def test_run_encoder_limits_raise_the_frame_at_a_time_errors():
    with pytest.raises(WireError, match="frame payload 4194305 exceeds"):
        encode_frame(WireKind.PUSH, 0, 0, 0, 0, bytes(MAX_FRAME_PAYLOAD + 1))
    with pytest.raises(WireError, match="MAX_MESSAGE_BYTES"):
        encode_frame(WireKind.PUSH, 0, 0, 0, 0, b"x",
                     total=MAX_MESSAGE_BYTES + 1)
    with pytest.raises(WireError, match="past the declared message total"):
        encode_frame(WireKind.PUSH, 0, 0, 0, 0, b"xyz", offset=1, total=3)
    with pytest.raises(WireError, match="u32 range"):
        encode_frame(WireKind.PUSH, 0, 0, 0, 0, b"x", seq=-1)
    with pytest.raises(WireError, match="frame payload 6291456 exceeds"):
        split_message(WireKind.PUSH, 0, 0, 0, 0, bytes(6 << 20), 8 << 20)


# ----------------------------------------------------------------------
# Receive: the one-pass decoder against the one it replaced
# ----------------------------------------------------------------------
_KINDS = {int(kind): kind for kind in WireKind}


class ReferenceDecoder:
    """``FrameDecoder`` before the one-pass rewrite, verbatim: a
    per-frame ``_try_decode`` testing each header field in turn."""

    def __init__(self, strict: bool = True) -> None:
        self._buf = bytearray()
        self._pos = 0
        self.strict = strict
        self.crc_failures = 0

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data

    @property
    def pending_bytes(self) -> int:
        return len(self._buf) - self._pos

    def frames(self) -> Iterator[Frame]:
        while True:
            frame = self._try_decode()
            if frame is None:
                return
            yield frame

    def _try_decode(self) -> Optional[Frame]:
        buf = self._buf
        while True:
            pos = self._pos
            start = pos + HEADER_SIZE
            if len(buf) < start:
                return None
            (magic, version, kind_i, flags, sender, key, iteration, priority,
             offset, total, length, seq, crc) = _HEADER.unpack_from(buf, pos)
            if magic != MAGIC:
                raise WireError(f"bad magic 0x{magic:04x} (stream desync?)")
            if version != VERSION:
                raise WireError(f"unsupported protocol version {version}")
            if flags != 0:
                raise WireError(f"nonzero reserved flags 0x{flags:04x}")
            if length > MAX_FRAME_PAYLOAD:
                raise WireError(f"frame length {length} exceeds cap "
                                f"{MAX_FRAME_PAYLOAD}")
            if total > MAX_MESSAGE_BYTES:
                raise WireError(f"message total {total} exceeds cap "
                                f"{MAX_MESSAGE_BYTES}")
            if offset + length > total:
                raise WireError("chunk extends past the declared message total")
            kind = _KINDS.get(kind_i)
            if kind is None:
                raise WireError(f"unknown message kind {kind_i}")
            end = start + length
            if len(buf) < end:
                return None
            with memoryview(buf) as view:
                payload = bytes(view[start:end])
                expect = zlib.crc32(payload, zlib.crc32(
                    view[pos:pos + HEADER_SIZE - 4]))
            if crc != expect:
                if self.strict:
                    raise WireError(f"CRC mismatch on {kind.name} frame "
                                    f"(key={key}, offset={offset})")
                self.crc_failures += 1
                self._pos = end
                continue
            self._pos = end
            return Frame(kind, sender, key, iteration, priority, offset,
                         total, payload, seq)


def drain(decoder):
    """Every frame a drain yields, then the error that ended it."""
    frames = []
    try:
        for frame in decoder.frames():
            frames.append(frame)
    except WireError as exc:
        return frames, str(exc)
    return frames, None


def assert_same_decoding(data: bytes, cuts, strict: bool) -> None:
    """Feed ``data`` in ``cuts``-sized pieces to both decoders: after
    every drain the same frames (or the same error after the same
    frames), skip count and pending bytes."""
    new, ref = FrameDecoder(strict=strict), ReferenceDecoder(strict=strict)
    fed = 0
    for size in list(cuts) + [len(data)]:
        if fed >= len(data):
            break
        piece = data[fed:fed + size]
        fed += len(piece)
        new.feed(piece)
        ref.feed(piece)
        got, want = drain(new), drain(ref)
        assert got == want
        assert new.crc_failures == ref.crc_failures
        assert new.pending_bytes == ref.pending_bytes
        if want[1] is not None:
            # The stream is dead: asked again, it fails the same way.
            assert drain(new) == drain(ref)
            return


stream_frames = st.lists(
    st.tuples(st.sampled_from(list(WireKind)), st.integers(0, 2 ** 31 - 1),
              st.integers(0, 400), st.integers(0, 3)),
    min_size=1, max_size=8)


@SETTINGS
@given(specs=stream_frames,
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                      max_size=2),
       cuts=st.lists(st.integers(1, 700), max_size=12),
       tail=st.integers(0, 60), strict=st.booleans())
def test_one_pass_decoder_matches_the_field_by_field_decoder(
        specs, flips, cuts, tail, strict):
    """Chunked streams of every kind, with single-byte corruptions
    anywhere (header or payload) and a partial tail, fed in random
    pieces, strict and lenient."""
    blob = b"".join(
        b"".join(split_message(kind, 1, key, i, -i, payload_of(key, size),
                               max(1, size // (1 + n_chunks))))
        for i, (kind, key, size, n_chunks) in enumerate(specs))
    data = bytearray(blob + encode_frame(WireKind.PUSH, 0, 0, 0, 0,
                                         b"t" * 64)[:tail])
    for at, xor in flips:
        data[at % len(data)] ^= xor
    assert_same_decoding(bytes(data), cuts, strict)


def _header(**fields) -> bytes:
    values = dict(magic=MAGIC, version=VERSION, kind=int(WireKind.PUSH),
                  flags=0, sender=0, key=1, iteration=0, priority=0,
                  offset=0, total=8, length=8, seq=0, crc=0)
    values.update(fields)
    return _HEADER.pack(*values.values())


#: One header per clause of the combined sanity test, each failing
#: only that clause (the CRC is garbage: a header that wrongly passes
#: fails it later, or waits for a payload that never comes).
BAD_HEADERS = {
    "magic": _header(magic=0x3350),
    "version": _header(version=VERSION + 1),
    "unknown kind": _header(kind=0),
    "kind past the last": _header(kind=max(_KINDS) + 1),
    "flags": _header(flags=0x0100),
    "frame length": _header(length=MAX_FRAME_PAYLOAD + 1,
                            total=MAX_FRAME_PAYLOAD + 1),
    "message total": _header(total=MAX_MESSAGE_BYTES + 1, length=0),
    "chunk past the total": _header(offset=5, total=12, length=8),
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("clause", list(BAD_HEADERS))
def test_each_header_clause_raises_its_own_error(clause, strict):
    good = encode_frame(WireKind.PULL_RESP, 2, 3, 4, 5, b"ok" * 9)
    data = good + BAD_HEADERS[clause] + bytes(8)
    assert_same_decoding(data, [len(good) + 7, HEADER_SIZE], strict)
    frames, error = drain(_fed(FrameDecoder(strict=strict), data))
    assert len(frames) == 1 and error is not None


@pytest.mark.parametrize("at", range(HEADER_SIZE))
@pytest.mark.parametrize("xor", [0x01, 0x80, 0xFF])
def test_every_header_byte_corruption_matches(at, xor):
    data = bytearray(encode_frame(WireKind.PUSH, 1, 2, 3, 4, b"p" * 40,
                                  offset=8, total=64, seq=5))
    data[at] ^= xor
    for strict in (True, False):
        assert_same_decoding(bytes(data), [], strict)


def test_a_feed_between_two_frames_of_one_drain():
    """The generator re-reads the cursor after each frame: a feed that
    compacts the buffer mid-drain must not make it read stale bytes."""
    first, second, third = (encode_frame(WireKind.PUSH, 0, key, 0, 0,
                                         bytes([key]) * 30)
                            for key in (1, 2, 3))
    for decoder in (FrameDecoder(), ReferenceDecoder()):
        decoder.feed(first + second[:10])
        drain_ = decoder.frames()
        assert next(drain_).key == 1
        decoder.feed(second[10:] + third)
        assert [frame.key for frame in drain_] == [2, 3]
        assert decoder.pending_bytes == 0


def _fed(decoder, data: bytes):
    decoder.feed(data)
    return decoder


# ----------------------------------------------------------------------
# Reassembly: in-order runs, joined in offset order
# ----------------------------------------------------------------------
def test_out_of_order_head_then_in_order_tail_joins_in_offset_order():
    payload = payload_of(5, 10 * 64 + 9)
    frames = drain(_fed(FrameDecoder(), b"".join(
        split_message(WireKind.PUSH, 0, 5, 0, 0, payload, 64))))[0]
    order = [frames[2], frames[0], frames[1]] + frames[3:]
    reassembler = Reassembler()
    done = [msg for msg in map(reassembler.add, order) if msg is not None]
    assert [msg.payload for msg in done] == [payload]
    assert reassembler.partial_messages == 0
