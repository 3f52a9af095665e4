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
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

MAGIC = 0x5033  # "P3"
VERSION = 2
HEADER_FMT = "<HBBHhiiiIIIII"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
CRC_OFFSET = HEADER_SIZE - 4  # crc32 is the last header field
_HEADER = struct.Struct(HEADER_FMT)
_HEAD = struct.Struct(HEADER_FMT[:-1])  # the CRC_OFFSET bytes the CRC covers
# An encoder packs a run's fixed fields (magic .. priority) once and only
# offset, total, length and seq per frame.
_PREFIX = struct.Struct(HEADER_FMT[:9])
_TAIL = struct.Struct("<" + HEADER_FMT[9:-1])
# A decoder reads magic, version and kind as one u32 tag: one dict
# lookup (:data:`_TAGS`) vets all three.
_DECODE = struct.Struct("<IHhiiiIIIII")
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
    # baseline's notify -> pull round trip (ROADMAP item 8) will use it.
    PULL_REQ = 2    # worker -> server: request key's value for a round
    PULL_RESP = 3   # server -> worker: a round's applied parameter slice
    ACK = 4         # server -> worker: heartbeat/control acknowledgement
    HEARTBEAT = 5   # worker -> server: liveness probe
    BYE = 6         # worker -> server: clean shutdown
    CHUNK_ACK = 7   # either direction: cumulative ack of received seqs
    # Reserved, as PULL_REQ is: the elastic-membership handshake that
    # used them is gone, and no node sends them — one that receives one
    # fails, naming the peer.  The values stay because committed wire
    # literals pin the kind space.
    JOIN = 8
    LEAVE = 9
    EPOCH = 10


#: The first header word of every valid frame -> its kind.
_TAGS = {MAGIC | VERSION << 16 | int(kind) << 24: kind for kind in WireKind}


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

    def view(self) -> np.ndarray:
        """The fp64 vector, read-only over the payload bytes (no copy)."""
        return np.frombuffer(self.payload, dtype=WIRE_DTYPE)


def encode_array(vec: np.ndarray) -> bytes:
    """Encode a numpy vector as wire payload bytes."""
    return np.ascontiguousarray(vec, dtype=WIRE_DTYPE).tobytes()


def encode_run(kind: WireKind, sender: int, key: int, iteration: int,
               priority: int, data: Union[bytes, memoryview], offset: int,
               total: int, chunk_bytes: int, seq: int = SEQ_NONE,
               sequenced: bool = False) -> List[bytes]:
    """Encode a run of one message's chunks: the one framing routine.

    ``data`` is the message's bytes from ``offset`` on; each frame
    carries at most ``chunk_bytes`` of it (one frame when ``data`` is
    empty).  The frames' ``seq`` is ``seq``, counting up one per frame
    when ``sequenced``.  The limits are checked once per run, in the
    order a frame-at-a-time encoder would meet them: the first chunk
    (the largest) against :data:`MAX_FRAME_PAYLOAD`, ``total``, the
    run's end, then every seq the run uses.  Pass ``data`` as a
    ``memoryview`` to cut chunks without copying them.
    """
    size = len(data)
    first = size if size < chunk_bytes else chunk_bytes
    if first > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload {first} exceeds "
                        f"MAX_FRAME_PAYLOAD={MAX_FRAME_PAYLOAD}")
    if total > MAX_MESSAGE_BYTES:
        raise WireError(f"message of {total} bytes exceeds "
                        f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
    if offset + size > total:
        raise WireError("chunk extends past the declared message total")
    step = 1 if sequenced else 0
    last_seq = seq + step * ((size - 1) // chunk_bytes) if size else seq
    if not (0 <= seq and last_seq <= SEQ_NONE):
        raise WireError(f"seq {seq if seq < 0 else last_seq} out of the "
                        "u32 range")
    if size <= chunk_bytes:  # one frame: its header is packed whole
        head = _HEAD.pack(MAGIC, VERSION, kind, 0, sender, key, iteration,
                          priority, offset, total, size, seq)
        crc = zlib.crc32(data, zlib.crc32(head))
        return [b"".join((head, _U32.pack(crc), data))]
    prefix = _PREFIX.pack(MAGIC, VERSION, kind, 0, sender, key, iteration,
                          priority)
    prefix_crc = zlib.crc32(prefix)
    tail, u32, crc32, join = _TAIL.pack, _U32.pack, zlib.crc32, b"".join
    frames = []
    for at in range(0, size, chunk_bytes):
        chunk = data[at:at + chunk_bytes]
        head = tail(offset + at, total, len(chunk), seq)
        frames.append(join((prefix, head,
                            u32(crc32(chunk, crc32(head, prefix_crc))),
                            chunk)))
        seq += step
    return frames


def encode_frame(kind: WireKind, sender: int, key: int, iteration: int,
                 priority: int, payload: bytes = b"", offset: int = 0,
                 total: Optional[int] = None, seq: int = SEQ_NONE) -> bytes:
    """Encode one frame; ``total`` defaults to ``len(payload)``."""
    if total is None:
        total = len(payload)
    return encode_run(kind, sender, key, iteration, priority, payload,
                      offset, total, len(payload) or 1, seq)[0]


def split_message(kind: WireKind, sender: int, key: int, iteration: int,
                  priority: int, payload: bytes,
                  chunk_bytes: int) -> List[bytes]:
    """Encode a logical message as one or more chunk frames.

    Empty-payload messages (control traffic) still produce one frame.
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    return encode_run(kind, sender, key, iteration, priority,
                      memoryview(payload), 0, len(payload), chunk_bytes)


def _header_error(buf: Union[bytes, bytearray], pos: int) -> WireError:
    """The error for a header that failed the decoder's combined sanity
    test: the first failing field, checked one at a time."""
    (magic, version, kind_i, flags, _sender, _key, _iteration, _priority,
     offset, total, length, _seq, _crc) = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        return WireError(f"bad magic 0x{magic:04x} (stream desync?)")
    if version != VERSION:
        return WireError(f"unsupported protocol version {version}")
    if flags != 0:
        return WireError(f"nonzero reserved flags 0x{flags:04x}")
    if length > MAX_FRAME_PAYLOAD:
        return WireError(f"frame length {length} exceeds cap "
                         f"{MAX_FRAME_PAYLOAD}")
    if total > MAX_MESSAGE_BYTES:
        return WireError(f"message total {total} exceeds cap "
                         f"{MAX_MESSAGE_BYTES}")
    if offset + length > total:
        return WireError("chunk extends past the declared message total")
    return WireError(f"unknown message kind {kind_i}")


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
        # The bytes being decoded and the read cursor: bytes before it
        # are decoded already.  A read that arrives while nothing is
        # pending is decoded where it lies, never copied.
        self._buf: Union[bytes, bytearray] = b""
        self._pos = 0
        # (read, cursor) to go on with once _buf — the one frame that
        # straddled two reads — is decoded: feed() copies that frame,
        # not the read it ends in.
        self._next: Optional[Tuple[bytes, int]] = None
        self.strict = strict
        self.crc_failures = 0

    def feed(self, data: bytes) -> None:
        data = bytes(data)  # kept until decoded: it must not change
        buf, pos, after = self._buf, self._pos, self._next
        if after is None:
            if pos == len(buf):
                self._buf, self._pos = data, 0
                return
            need = _straddle(buf, pos, data)
            if need:
                self._buf = b"".join((memoryview(buf)[pos:],
                                      memoryview(data)[:need]))
                self._pos = 0
                self._next = (data, need) if need < len(data) else None
                return
        # A frame longer than this read, or a feed before the last one
        # was drained: one growing buffer (amortized, like any bytearray).
        if type(buf) is bytearray:
            del buf[:pos]
        else:
            buf = bytearray(memoryview(buf)[pos:])
        if after is not None:
            buf += memoryview(after[0])[after[1]:]
        buf += data
        self._buf, self._pos, self._next = buf, 0, None

    @property
    def pending_bytes(self) -> int:
        after = self._next
        return len(self._buf) - self._pos + (
            0 if after is None else len(after[0]) - after[1])

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame buffered so far, in stream order.

        One sanity test covers each header (a valid magic, version and
        kind are one tag lookup); only a header that fails it is checked
        field by field, for the error to raise.
        """
        unpack, tags, crc32, new = (_DECODE.unpack_from, _TAGS, zlib.crc32,
                                    tuple.__new__)
        while True:
            # Re-read: a feed between two frames may have replaced them.
            buf, pos = self._buf, self._pos
            start = pos + HEADER_SIZE
            if len(buf) < start:
                if pos == len(buf) and self._next is not None:
                    # The straddling frame is done: on into its read.
                    self._buf, self._pos = self._next
                    self._next = None
                    continue
                return
            (tag, flags, sender, key, iteration, priority, offset, total,
             length, seq, crc) = unpack(buf, pos)
            kind = tags.get(tag)
            if (kind is None or flags or length > MAX_FRAME_PAYLOAD
                    or total > MAX_MESSAGE_BYTES or offset + length > total):
                raise _header_error(buf, pos)
            end = start + length
            if len(buf) < end:
                return
            # One copy out of a read; two out of the rare bytearray.
            payload = bytes(buf[start:end])
            intact = crc32(payload, crc32(buf[pos:start - 4])) == crc
            if not intact:
                if self.strict:
                    raise WireError(f"CRC mismatch on {kind.name} frame "
                                    f"(key={key}, offset={offset})")
                # Lenient mode: framing fields were sane, so drop exactly
                # this frame and keep decoding — retransmission repairs it.
                self.crc_failures += 1
                self._pos = end
                continue
            self._pos = end
            yield new(Frame, (kind, sender, key, iteration, priority, offset,
                              total, payload, seq))


def _straddle(buf: Union[bytes, bytearray], pos: int, data: bytes) -> int:
    """How many bytes of ``data`` complete the frame that starts at
    ``buf[pos:]``, when it ends within ``data`` (0 when it does not, or
    when its header is not whole or not plausible yet)."""
    head = bytes(memoryview(buf)[pos:pos + HEADER_SIZE])
    if len(head) < HEADER_SIZE:
        head += data[:HEADER_SIZE - len(head)]
        if len(head) < HEADER_SIZE:
            return 0
    length = _DECODE.unpack(head)[8]
    if length > MAX_FRAME_PAYLOAD:
        return 0
    need = HEADER_SIZE + length - (len(buf) - pos)
    return need if 0 < need <= len(data) else 0


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
        kind, sender, key, iteration, priority, start, total, payload, _ = \
            frame
        end = start + len(payload)
        ident = (sender, kind, key, iteration)  # WireKind hashes as int
        part = self._partial.get(ident)
        if total == 0 or (part is None and end - start == total):
            return WireMessage(kind, sender, key, iteration, priority,
                               payload)
        if part is None:
            if payload:  # a first chunk opens the message's one run
                self._partial[ident] = (total, [[start, end]],
                                        {start: payload})
                return None
            part = self._partial[ident] = (total, [], {})
        expected, runs, chunks = part
        if payload and len(runs) == 1 and runs[0][1] == start \
                and expected == total:
            # In order: the chunk extends the one run.
            run = runs[0]
            run[1] = end
            chunks[start] = payload
            if end != total or run[0]:
                return None
        else:
            named = (sender, int(kind), key, iteration)
            if expected != total:
                raise WireError(f"message {named} changed its total length")
            i = bisect_right(runs, [start, total])  # runs[:i] start <= start
            if ((i and runs[i - 1][1] > start and runs[i - 1][0] < end)
                    or (i < len(runs) and runs[i][0] < end)):
                raise WireError(f"message {named} received overlapping "
                                "chunks")
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
            if runs != [[0, total]]:
                return None
        del self._partial[ident]
        return WireMessage(kind, sender, key, iteration, priority,
                           b"".join([chunks[at] for at in sorted(chunks)]))
