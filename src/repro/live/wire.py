"""Length-prefixed wire protocol for the live transport (PR: repro.live).

The paper's artifact moves gradients through MXNet's KVStore over real
NICs; this module is the byte-level contract our live reproduction uses
for the same traffic.  A logical message (one gradient slice push, one
parameter pull, one heartbeat, ...) is carried as one or more *frames*
so the priority sender (:mod:`repro.live.transport`) can preempt a large
low-priority transfer between chunks — the end-host analogue of the
paper's per-packet `tc` priority bands.

Frame layout (little-endian, 40-byte header + payload chunk)::

    magic     u16   0x5033 ("P3")
    version   u8    protocol version (2)
    kind      u8    WireKind
    flags     u16   reserved (must be zero)
    sender    i16   worker/server id (-1 = driver)
    key       i32   synchronization key (PlacedKey.key)
    iteration i32   training round the message belongs to
    priority  i32   scheduling priority (lower = more urgent)
    offset    u32   byte offset of this chunk within the logical payload
    total     u32   total payload bytes of the logical message
    length    u32   payload bytes carried by THIS frame
    seq       u32   per-connection frame sequence number (SEQ_NONE for
                    unsequenced control frames; for CHUNK_ACK frames
                    this field carries the *cumulative acknowledged*
                    sequence number of the reverse direction)
    crc32     u32   CRC-32 of the header (crc field zeroed) + payload

Every frame is self-describing, so a receiver reassembles interleaved
messages with a dict keyed by ``(sender, kind, key, iteration)`` and
rejects truncated or corrupted frames deterministically instead of
desynchronizing the stream.

Version 2 adds the ``seq`` field: the fault-tolerant transport
(:mod:`repro.live.transport`) numbers every *data* frame per connection
and acknowledges them cumulatively with ``CHUNK_ACK`` frames, so a lossy
channel (:mod:`repro.live.chaos`) can drop, duplicate, or corrupt frames
and the recovered stream is still exactly the clean one.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

MAGIC = 0x5033  # "P3"
VERSION = 2
HEADER_FMT = "<HBBHhiiiIIIII"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
CRC_OFFSET = HEADER_SIZE - 4  # crc32 is the last header field

#: ``seq`` value of unsequenced (control) frames: they are delivered
#: best-effort and never retransmitted or duplicate-suppressed.
SEQ_NONE = 0xFFFFFFFF

#: Hard ceiling on a single frame's payload; anything larger is treated
#: as stream corruption (a flipped length field must not allocate GBs).
MAX_FRAME_PAYLOAD = 1 << 22  # 4 MiB
#: Ceiling on a logical message (a full gradient slice in fp64).
MAX_MESSAGE_BYTES = 1 << 28  # 256 MiB

#: Payload dtype on the wire: the functional data plane (repro.kvstore)
#: is fp64 end to end, so the live plane is too.
WIRE_DTYPE = np.float64
WIRE_BYTES_PER_PARAM = 8


class WireError(Exception):
    """Raised on malformed, corrupt, or protocol-violating frames."""


class WireKind(IntEnum):
    """Message types of the live data plane."""

    PUSH = 1        # worker -> server: gradient slice payload
    PULL_REQ = 2    # worker -> server: request key's value for a round
    PULL_RESP = 3   # server -> worker: parameter slice payload
    ACK = 4         # server -> worker: heartbeat/control acknowledgement
    HEARTBEAT = 5   # worker -> server: liveness probe
    BYE = 6         # worker -> server: clean shutdown
    CHUNK_ACK = 7   # either direction: cumulative ack of received seqs
    # Elastic membership (asyncio stack).  These extend the *kind* space
    # only; the frame layout is unchanged, so protocol version stays 2.
    # ``key`` carries the membership epoch index, ``iteration`` the
    # epoch's first global round.
    JOIN = 8        # worker -> server: ready to participate in epoch
    LEAVE = 9       # worker -> server: done with epoch, departing
    EPOCH = 10      # server -> worker: epoch committed, rounds may start


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame (a chunk of a logical message)."""

    kind: WireKind
    sender: int
    key: int
    iteration: int
    priority: int
    offset: int
    total: int
    payload: bytes
    seq: int = SEQ_NONE

    @property
    def is_final_chunk(self) -> bool:
        return self.offset + len(self.payload) == self.total

    @property
    def is_sequenced(self) -> bool:
        return self.seq != SEQ_NONE and self.kind is not WireKind.CHUNK_ACK


@dataclass(frozen=True)
class WireMessage:
    """A fully reassembled logical message."""

    kind: WireKind
    sender: int
    key: int
    iteration: int
    priority: int
    payload: bytes

    def array(self) -> np.ndarray:
        """Decode the payload as the fp64 vector it carries."""
        return np.frombuffer(self.payload, dtype=WIRE_DTYPE).copy()


def encode_array(vec: np.ndarray) -> bytes:
    """Encode a numpy vector as wire payload bytes."""
    return np.ascontiguousarray(vec, dtype=WIRE_DTYPE).tobytes()


def encode_frame(kind: WireKind, sender: int, key: int, iteration: int,
                 priority: int, payload: bytes = b"", offset: int = 0,
                 total: Optional[int] = None, seq: int = SEQ_NONE) -> bytes:
    """Encode one frame; ``total`` defaults to ``len(payload)``."""
    if total is None:
        total = len(payload)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload {len(payload)} exceeds "
                        f"MAX_FRAME_PAYLOAD={MAX_FRAME_PAYLOAD}")
    if total > MAX_MESSAGE_BYTES:
        raise WireError(f"message of {total} bytes exceeds "
                        f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
    if offset + len(payload) > total:
        raise WireError("chunk extends past the declared message total")
    if not (0 <= seq <= SEQ_NONE):
        raise WireError(f"seq {seq} out of the u32 range")
    header = struct.pack(HEADER_FMT, MAGIC, VERSION, int(kind), 0, sender,
                         key, iteration, priority, offset, total,
                         len(payload), seq, 0)
    crc = zlib.crc32(header[:CRC_OFFSET])
    crc = zlib.crc32(payload, crc)
    return header[:CRC_OFFSET] + struct.pack("<I", crc) + payload


def reseq_frame(frame: bytes, seq: int) -> bytes:
    """Rewrite an encoded frame's ``seq`` field, recomputing the CRC.

    Used by the reconnect path: sequence numbers are per-*connection*
    state, so when a sender rebinds its unacked Go-Back-N window onto a
    fresh connection it renumbers the retained frames ``0..n-1`` for the
    peer's fresh :class:`~repro.live.transport.ReliableInbox`.
    """
    if len(frame) < HEADER_SIZE:
        raise WireError("frame shorter than a header")
    if not (0 <= seq <= SEQ_NONE):
        raise WireError(f"seq {seq} out of the u32 range")
    (magic, version, kind_i, flags, sender, key, iteration, priority,
     offset, total, length, _old_seq, _crc) = \
        struct.unpack_from(HEADER_FMT, frame)
    if magic != MAGIC:
        raise WireError(f"bad magic 0x{magic:04x}")
    payload = frame[HEADER_SIZE:]
    header = struct.pack(HEADER_FMT, magic, version, kind_i, flags, sender,
                         key, iteration, priority, offset, total, length,
                         seq, 0)
    crc = zlib.crc32(header[:CRC_OFFSET])
    crc = zlib.crc32(payload, crc)
    return header[:CRC_OFFSET] + struct.pack("<I", crc) + payload


def split_message(kind: WireKind, sender: int, key: int, iteration: int,
                  priority: int, payload: bytes,
                  chunk_bytes: int) -> List[bytes]:
    """Encode a logical message as one or more chunk frames.

    Empty-payload messages (control traffic) still produce one frame.
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    total = len(payload)
    if total == 0:
        return [encode_frame(kind, sender, key, iteration, priority)]
    return [
        encode_frame(kind, sender, key, iteration, priority,
                     payload[off:off + chunk_bytes], offset=off, total=total)
        for off in range(0, total, chunk_bytes)
    ]


class FrameDecoder:
    """Incremental frame decoder for a TCP byte stream.

    Feed raw socket bytes with :meth:`feed`; iterate :meth:`frames` to
    drain every complete frame.  A partial frame stays buffered until
    more bytes arrive; a malformed one raises :class:`WireError` (the
    stream is unrecoverable past that point, by design — TCP delivered
    exactly what the peer sent, so corruption means a broken peer).

    ``strict=False`` is the fault-tolerant posture for links behind a
    :class:`repro.live.chaos.ChaosChannel`: a frame whose *framing*
    fields are sane but whose CRC fails (payload or crc corruption) is
    silently skipped and counted in :attr:`crc_failures` — the
    reliability layer retransmits it — while genuine stream desync (bad
    magic, impossible lengths) still raises.
    """

    def __init__(self, strict: bool = True) -> None:
        self._buf = bytearray()
        self.strict = strict
        self.crc_failures = 0

    def reset(self) -> None:
        """Make the decoder safe to reuse on a *new* connection.

        Discards any partial frame buffered from the previous byte
        stream (whose continuation will never arrive) and zeroes
        :attr:`crc_failures`, so per-connection stats never inherit the
        previous connection's skip count.
        """
        self._buf.clear()
        self.crc_failures = 0

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def frames(self) -> Iterator[Frame]:
        while True:
            frame = self._try_decode()
            if frame is None:
                return
            yield frame

    def _try_decode(self) -> Optional[Frame]:
        while True:
            if len(self._buf) < HEADER_SIZE:
                return None
            (magic, version, kind_i, flags, sender, key, iteration, priority,
             offset, total, length, seq, crc) = \
                struct.unpack_from(HEADER_FMT, self._buf)
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
            try:
                kind = WireKind(kind_i)
            except ValueError:
                raise WireError(f"unknown message kind {kind_i}") from None
            if len(self._buf) < HEADER_SIZE + length:
                return None
            payload = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            expect = zlib.crc32(bytes(self._buf[:CRC_OFFSET]))
            expect = zlib.crc32(payload, expect)
            if crc != expect:
                if self.strict:
                    raise WireError(f"CRC mismatch on {kind.name} frame "
                                    f"(key={key}, offset={offset})")
                # Lenient mode: framing fields were sane, so drop exactly
                # this frame and keep decoding — retransmission repairs it.
                self.crc_failures += 1
                del self._buf[:HEADER_SIZE + length]
                continue
            del self._buf[:HEADER_SIZE + length]
            return Frame(kind, sender, key, iteration, priority, offset,
                         total, payload, seq=seq)


class Reassembler:
    """Reassembles interleaved chunked messages from one connection."""

    def __init__(self) -> None:
        self._partial: Dict[Tuple[int, int, int, int],
                            Tuple[bytearray, List[Tuple[int, int]]]] = {}

    @property
    def partial_messages(self) -> int:
        return len(self._partial)

    def add(self, frame: Frame) -> Optional[WireMessage]:
        """Absorb one frame; return the message if now complete."""
        if frame.total == 0:
            return WireMessage(frame.kind, frame.sender, frame.key,
                               frame.iteration, frame.priority, b"")
        ident = (frame.sender, int(frame.kind), frame.key, frame.iteration)
        if ident not in self._partial:
            self._partial[ident] = (bytearray(frame.total), [])
        buf, ranges = self._partial[ident]
        if len(buf) != frame.total:
            raise WireError(f"message {ident} changed its total length")
        start, end = frame.offset, frame.offset + len(frame.payload)
        for lo, hi in ranges:
            if start < hi and lo < end:
                raise WireError(f"message {ident} received overlapping chunks")
        buf[start:end] = frame.payload
        ranges.append((start, end))
        if sum(hi - lo for lo, hi in ranges) == frame.total:
            del self._partial[ident]
            return WireMessage(frame.kind, frame.sender, frame.key,
                               frame.iteration, frame.priority, bytes(buf))
        return None
