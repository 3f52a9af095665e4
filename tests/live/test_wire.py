"""Wire-protocol robustness: codec round-trips under hypothesis, and
deterministic rejection of truncated or corrupted frames."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    Reassembler,
    WireError,
    WireKind,
    encode_array,
    encode_frame,
    split_message,
)

kinds = st.sampled_from(list(WireKind))
idents = st.integers(min_value=-(2 ** 15), max_value=2 ** 15 - 1)
keys = st.integers(min_value=0, max_value=2 ** 31 - 1)
priorities = st.integers(min_value=-(2 ** 30), max_value=2 ** 30)
payloads = st.binary(min_size=0, max_size=4096)


def decode_all(data: bytes):
    """Feed one blob through decoder + reassembler; return messages."""
    decoder = FrameDecoder()
    reassembler = Reassembler()
    decoder.feed(data)
    out = []
    for frame in decoder.frames():
        msg = reassembler.add(frame)
        if msg is not None:
            out.append(msg)
    return out


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(kind=kinds, sender=idents, key=keys, iteration=keys,
       priority=priorities, payload=payloads,
       chunk=st.integers(min_value=1, max_value=1024))
def test_chunked_roundtrip(kind, sender, key, iteration, priority, payload,
                           chunk):
    frames = split_message(kind, sender, key, iteration, priority, payload,
                           chunk_bytes=chunk)
    msgs = decode_all(b"".join(frames))
    assert len(msgs) == 1
    msg = msgs[0]
    assert (msg.kind, msg.sender, msg.key, msg.iteration, msg.priority) == \
        (kind, sender, key, iteration, priority)
    assert msg.payload == payload


@settings(max_examples=30, deadline=None)
@given(payload=payloads, cut=st.integers(min_value=0, max_value=4096),
       chunk=st.integers(min_value=1, max_value=512))
def test_byte_at_a_time_feeding(payload, cut, chunk):
    """Arbitrary TCP segmentation must never split or corrupt a message."""
    data = b"".join(split_message(WireKind.PUSH, 1, 2, 3, 4, payload, chunk))
    cut = min(cut, len(data))
    decoder = FrameDecoder()
    reassembler = Reassembler()
    msgs = []
    for part in (data[:cut], data[cut:]):
        decoder.feed(part)
        for frame in decoder.frames():
            msg = reassembler.add(frame)
            if msg is not None:
                msgs.append(msg)
    assert len(msgs) == 1 and msgs[0].payload == payload


def test_array_roundtrip():
    vec = np.linspace(-1.0, 1.0, 1234)
    frames = split_message(WireKind.PULL_RESP, 0, 7, 2, 1,
                           encode_array(vec), chunk_bytes=100)
    (msg,) = decode_all(b"".join(frames))
    np.testing.assert_array_equal(msg.array(), vec)


def test_interleaved_messages_reassemble():
    """Chunks of different messages interleave freely on one stream."""
    a = split_message(WireKind.PUSH, 0, 1, 0, 5, b"A" * 300, 100)
    b = split_message(WireKind.PUSH, 0, 2, 0, 0, b"B" * 300, 100)
    interleaved = [fr for pair in zip(a, b) for fr in pair]
    msgs = decode_all(b"".join(interleaved))
    assert {m.key: m.payload for m in msgs} == {1: b"A" * 300, 2: b"B" * 300}


# ----------------------------------------------------------------------
# Rejection of malformed input
# ----------------------------------------------------------------------
def test_truncated_frame_waits_for_more_bytes():
    data = encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"x" * 100)
    decoder = FrameDecoder()
    decoder.feed(data[:-10])
    assert list(decoder.frames()) == []  # incomplete, not an error
    decoder.feed(data[-10:])
    assert len(list(decoder.frames())) == 1


@pytest.mark.parametrize("flip_at", [0, HEADER_SIZE - 2, HEADER_SIZE + 5])
def test_corrupt_byte_rejected(flip_at):
    data = bytearray(encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"y" * 64))
    data[flip_at] ^= 0xFF
    decoder = FrameDecoder()
    decoder.feed(bytes(data))
    with pytest.raises(WireError):
        list(decoder.frames())


def test_bad_magic_rejected():
    decoder = FrameDecoder()
    decoder.feed(b"\x00" * HEADER_SIZE)
    with pytest.raises(WireError, match="magic"):
        list(decoder.frames())


def test_oversize_length_field_rejected():
    """A corrupt length field must not trigger a giant allocation."""
    header = struct.pack("<HBBHhiiiIIII", MAGIC, 2, int(WireKind.PUSH), 0, 0,
                         0, 0, 0, 0, MAX_FRAME_PAYLOAD * 2,
                         MAX_FRAME_PAYLOAD * 2, 0xFFFFFFFF)
    import zlib
    crc = zlib.crc32(header)
    decoder = FrameDecoder()
    decoder.feed(header + struct.pack("<I", crc))
    with pytest.raises(WireError, match="exceeds"):
        list(decoder.frames())


def test_oversize_message_refused_at_encode():
    with pytest.raises(WireError):
        encode_frame(WireKind.PUSH, 0, 0, 0, 0, b"", total=1 << 40)


def test_crc_covers_payload():
    data = bytearray(encode_frame(WireKind.PUSH, 3, 9, 1, 2, b"payload!"))
    data[HEADER_SIZE] ^= 0x01  # first payload byte
    decoder = FrameDecoder()
    decoder.feed(bytes(data))
    with pytest.raises(WireError, match="CRC"):
        list(decoder.frames())


def _corrupted_frame(payload: bytes = b"c" * 64) -> bytes:
    data = bytearray(encode_frame(WireKind.PUSH, 0, 1, 0, 0, payload))
    data[HEADER_SIZE] ^= 0x01  # payload bit flip: CRC fails, framing sane
    return bytes(data)


def test_overlapping_chunks_rejected():
    frames = split_message(WireKind.PUSH, 0, 1, 0, 0, b"z" * 200, 100)
    decoder = FrameDecoder()
    reassembler = Reassembler()
    decoder.feed(frames[0] + frames[0] + frames[1])
    decoded = list(decoder.frames())
    reassembler.add(decoded[0])
    with pytest.raises(WireError, match="overlap"):
        for frame in decoded[1:]:
            reassembler.add(frame)


# ----------------------------------------------------------------------
# Wire v2, pinned
# ----------------------------------------------------------------------
def test_wire_v2_bytes_are_pinned():
    """One frame of each shape against committed bytes (cut from the
    encoder as it was before the precompiled-``Struct`` rewrite): the
    format is a contract with peers, not a round-trip with ourselves."""
    data = encode_frame(WireKind.PULL_RESP, -2, 7, 3, -5, b"P3 wire v2",
                        offset=4, total=32, seq=9)
    assert data == bytes.fromhex(
        "3350" "02" "03" "0000" "feff" "07000000" "03000000" "fbffffff"
        "04000000" "20000000" "0a000000" "09000000" "a618a925"
    ) + b"P3 wire v2"
    ack = encode_frame(WireKind.CHUNK_ACK, 1, -1, 0, -(1 << 30), seq=41)
    assert ack == bytes.fromhex(
        "3350" "02" "07" "0000" "0100" "ffffffff" "00000000" "000000c0"
        "00000000" "00000000" "00000000" "29000000" "ab4f40ed")


# ----------------------------------------------------------------------
# The cursor decoder against one-shot decoding
# ----------------------------------------------------------------------
frame_specs = st.lists(
    st.tuples(kinds, keys, st.binary(min_size=0, max_size=300),
              st.booleans()),  # corrupt this frame's payload or CRC?
    min_size=1, max_size=12)


def _stream(specs):
    """The encoded frames (some sabotaged) and which survive a lenient
    decode.  Only payload/CRC bytes are flipped: framing stays sane."""
    blobs, good = [], []
    for i, (kind, key, payload, corrupt) in enumerate(specs):
        blob = bytearray(encode_frame(kind, 1, key, i, 0, payload, seq=i))
        if corrupt:
            blob[-1] ^= 0x40  # last payload byte, or the CRC's when empty
        else:
            good.append((kind, key, i, payload, i))
        blobs.append(bytes(blob))
    return blobs, good


@settings(max_examples=150, deadline=None)
@given(specs=frame_specs,
       cuts=st.lists(st.integers(min_value=1, max_value=400), max_size=40),
       tail=st.integers(min_value=0, max_value=60))
def test_decoder_is_split_invariant_and_counts_pending_exactly(specs, cuts,
                                                               tail):
    """Feed a stream in arbitrary pieces (down to one byte): the frames
    are those of the whole, lenient CRC skips included, and after every
    drain ``pending_bytes`` is exactly what was fed minus every frame —
    delivered or skipped — that is complete so far."""
    blobs, good = _stream(specs)
    # A trailing partial frame that never completes.
    data = b"".join(blobs) + encode_frame(WireKind.PUSH, 0, 0, 0, 0,
                                          b"t" * 64)[:tail]
    ends = np.cumsum([len(b) for b in blobs]).tolist()
    decoder = FrameDecoder(strict=False)
    got, fed = [], 0
    pieces = cuts + [len(data)]  # whatever the cuts left, in one go
    for size in pieces:
        if fed == len(data):
            break
        decoder.feed(data[fed:fed + size])
        fed = min(len(data), fed + size)
        got.extend(decoder.frames())
        consumed = max([e for e in ends if e <= fed], default=0)
        assert decoder.pending_bytes == fed - consumed
    assert [(f.kind, f.key, f.iteration, f.payload, f.seq)
            for f in got] == good
    assert decoder.crc_failures == len(specs) - len(good)
    assert decoder.pending_bytes == tail


def test_one_byte_feeds_yield_every_frame():
    blobs, good = _stream([(WireKind.PUSH, k, bytes([k]) * (k * 7), False)
                           for k in range(6)])
    decoder = FrameDecoder()
    got = []
    for byte in b"".join(blobs):
        decoder.feed(bytes([byte]))
        got.extend(decoder.frames())
    assert [(f.kind, f.key, f.iteration, f.payload, f.seq)
            for f in got] == good
    assert decoder.pending_bytes == 0


def test_strict_crc_failure_does_not_consume_the_frame():
    decoder = FrameDecoder()
    decoder.feed(_corrupted_frame())
    for _ in range(2):  # the stream is dead: it fails again, not skips
        with pytest.raises(WireError, match="CRC mismatch"):
            list(decoder.frames())


# ----------------------------------------------------------------------
# Reassembler: merged runs against the range list they replaced
# ----------------------------------------------------------------------
class RangeListReassembly:
    """The rule ``Reassembler.add`` had before it kept merged runs,
    written out: scan every recorded range for overlap, append, re-sum."""

    def __init__(self):
        self.buf, self.ranges = None, []

    def add(self, total, offset, payload):
        if self.buf is None:
            self.buf = bytearray(total)
        if len(self.buf) != total:
            return "changed its total length"
        start, end = offset, offset + len(payload)
        if any(start < hi and lo < end for lo, hi in self.ranges):
            return "overlapping chunks"
        self.buf[start:end] = payload
        self.ranges.append((start, end))
        if sum(hi - lo for lo, hi in self.ranges) == total:
            return bytes(self.buf)
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), total=st.integers(min_value=2, max_value=120))
def test_reassembler_matches_the_range_list_rule(data, total):
    """Chunks in any order, with duplicates, overlaps and a changed
    total thrown in: the same message, or the same ``WireError``, at the
    same frame.  (Every chunk is non-empty and none is the whole
    message: a whole message never enters the partial table.)"""
    payload = bytes(range(total))
    n = data.draw(st.integers(min_value=1, max_value=12))
    chunks = []
    for _ in range(n):
        lo = data.draw(st.integers(min_value=0, max_value=total - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=total))
        if (lo, hi) != (0, total):
            chunks.append((total, lo, hi))
    # Mostly a clean partition in random order, so completion is reached.
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), min_size=1)))
    part = [(total, lo, hi) for lo, hi in zip([0] + cuts, cuts + [total])]
    chunks = data.draw(st.permutations(part + chunks[:2]))
    if data.draw(st.booleans()):
        chunks = list(chunks)
        chunks.insert(data.draw(st.integers(0, len(chunks))),
                      (total + 1, 0, 1))
    model, real = RangeListReassembly(), Reassembler()
    for declared, lo, hi in chunks:
        expect = model.add(declared, lo, payload[lo:hi])
        frame = next(iter(_decode(encode_frame(
            WireKind.PUSH, 0, 1, 0, 0, payload[lo:hi], offset=lo,
            total=declared))))
        if isinstance(expect, str):
            with pytest.raises(WireError, match=expect):
                real.add(frame)
            return
        msg = real.add(frame)
        assert (msg.payload if msg is not None else None) == expect
        if msg is not None:
            assert real.partial_messages == 0
            return


def _decode(data: bytes):
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())


def test_a_whole_message_passes_straight_through():
    (frame,) = _decode(encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"whole"))
    reassembler = Reassembler()
    msg = reassembler.add(frame)
    assert msg.payload is frame.payload and reassembler.partial_messages == 0


def test_reassembly_work_is_linear_in_chunks():
    """Regression: every frame rescanned and re-summed every range seen
    so far — 4096 chunks cost 8 M comparisons.  Merged runs keep one run
    for in-order chunks, and at most one per gap otherwise."""
    total, chunk = 1 << 18, 64
    payload = bytes(total)
    frames = _decode(b"".join(split_message(WireKind.PUSH, 0, 1, 0, 0,
                                            payload, chunk)))
    for order in (frames, frames[::-1], frames[::2] + frames[1::2]):
        reassembler = Reassembler()
        done = [m for m in map(reassembler.add, order) if m is not None]
        assert len(done) == 1 and done[0].payload == payload
    # In order: one run the whole way.  Evens then odds: a run per gap,
    # all merged away by the time the message completes.
    reassembler = Reassembler()
    for frame in frames[:-1]:
        reassembler.add(frame)
    (_total, runs, _chunks), = reassembler._partial.values()
    assert runs == [[0, total - chunk]]
