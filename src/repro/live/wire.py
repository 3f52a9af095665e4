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
from bisect import bisect_right
from enum import IntEnum
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

MAGIC = 0x5033  # "P3"
VERSION = 2
HEADER_FMT = "<HBBHhiiiIIIII"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
CRC_OFFSET = HEADER_SIZE - 4  # crc32 is the last header field
_HEADER = struct.Struct(HEADER_FMT)
_HEAD = struct.Struct(HEADER_FMT[:-1])  # the CRC_OFFSET bytes the CRC covers
_U32 = struct.Struct("<I")

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
    # No node sends or handles PULL_REQ: a shard answers a round's
    # contributors unasked (the paper's broadcast).  The member stays —
    # the kind space is pinned by committed wire literals, and the
    # baseline's notify -> pull round trip (ROADMAP item 3) will use it.
    PULL_REQ = 2    # worker -> server: request key's value for a round
    PULL_RESP = 3   # server -> worker: a round's applied parameter slice
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


_KINDS = {int(kind): kind for kind in WireKind}


class Frame(NamedTuple):
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


class WireMessage(NamedTuple):
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
    head = _HEAD.pack(MAGIC, VERSION, kind, 0, sender, key, iteration,
                      priority, offset, total, len(payload), seq)
    crc = zlib.crc32(payload, zlib.crc32(head))
    return b"".join((head, _U32.pack(crc), payload))


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
    magic, = struct.unpack_from("<H", frame)
    if magic != MAGIC:
        raise WireError(f"bad magic 0x{magic:04x}")
    head = frame[:CRC_OFFSET - 4] + _U32.pack(seq)  # seq: last pre-CRC field
    payload = frame[HEADER_SIZE:]
    crc = zlib.crc32(payload, zlib.crc32(head))
    return b"".join((head, _U32.pack(crc), payload))


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
        self._pos = 0  # read cursor: bytes before it are decoded already
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
        self._pos = 0
        self.crc_failures = 0

    def feed(self, data: bytes) -> None:
        if self._pos:  # compact once per read, not once per frame
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
            with memoryview(buf) as view:  # released before buf can resize
                payload = bytes(view[start:end])
                expect = zlib.crc32(payload,
                                    zlib.crc32(view[pos:pos + CRC_OFFSET]))
            if crc != expect:
                if self.strict:
                    raise WireError(f"CRC mismatch on {kind.name} frame "
                                    f"(key={key}, offset={offset})")
                # Lenient mode: framing fields were sane, so drop exactly
                # this frame and keep decoding — retransmission repairs it.
                self.crc_failures += 1
                self._pos = end
                continue
            self._pos = end
            return Frame(kind, sender, key, iteration, priority, offset,
                         total, payload, seq)


class Reassembler:
    """Reassembles interleaved chunked messages from one connection."""

    def __init__(self) -> None:
        # ident -> (total, received runs, chunk by offset).  Runs are
        # disjoint ``[lo, hi]`` lists sorted by ``lo``, touching ones
        # merged: chunks arriving in order only ever extend the one run.
        self._partial: Dict[Tuple[int, int, int, int],
                            Tuple[int, List[List[int]], Dict[int, bytes]]] = {}

    @property
    def partial_messages(self) -> int:
        return len(self._partial)

    def add(self, frame: Frame) -> Optional[WireMessage]:
        """Absorb one frame; return the message if now complete."""
        payload, total, start = frame.payload, frame.total, frame.offset
        end = start + len(payload)
        ident = (frame.sender, int(frame.kind), frame.key, frame.iteration)
        part = self._partial.get(ident)
        if total == 0 or (part is None and end - start == total):
            return WireMessage(frame.kind, frame.sender, frame.key,
                               frame.iteration, frame.priority, payload)
        if part is None:
            part = self._partial[ident] = (total, [], {})
        expected, runs, chunks = part
        if expected != total:
            raise WireError(f"message {ident} changed its total length")
        i = bisect_right(runs, [start, total])  # runs[:i] start <= start
        if ((i and runs[i - 1][1] > start and runs[i - 1][0] < end)
                or (i < len(runs) and runs[i][0] < end)):
            raise WireError(f"message {ident} received overlapping chunks")
        if payload:
            chunks[start] = payload
        if i and runs[i - 1][1] == start:
            runs[i - 1][1] = end
            if i < len(runs) and runs[i][0] == end:  # gap closed
                runs[i - 1][1] = runs.pop(i)[1]
        elif i < len(runs) and runs[i][0] == end:
            runs[i][0] = start
        elif payload:
            runs.insert(i, [start, end])
        if runs == [[0, total]]:
            del self._partial[ident]
            return WireMessage(
                frame.kind, frame.sender, frame.key, frame.iteration,
                frame.priority, b"".join(map(chunks.get, sorted(chunks))))
        return None
