"""Live transport subsystem: the P3 data plane over real sockets.

Where :mod:`repro.sim` *models* when bytes move and :mod:`repro.kvstore`
computes *what* they contain in-process, this package runs the same
functional data plane over real TCP sockets on localhost, with
priority-scheduled sending and token-bucket bandwidth shaping — the
software analogue of the paper's ``tc qdisc``-throttled testbed.  The
cluster itself (worker, server-shard and aggregator nodes on one event
loop) is :mod:`repro.live.aio`; it is imported on use, so this package
never loads ``asyncio``.  See ``docs/live.md``.
"""

from .chaos import ChaosChannel
from .config import LiveClusterConfig
from .result import (
    LiveAggregatorError,
    LiveRunError,
    LiveRunResult,
    LiveWorkerError,
)
from .transport import (
    BARRIER_PRIORITY,
    CONTROL_PRIORITY,
    ChunkRecord,
    PrioritySender,
    ReliableInbox,
    ReliableOutbox,
    ReliableReceiver,
    RetryPolicy,
    TokenBucket,
    TransportError,
    goodput_bytes_per_s,
    timeline_utilization,
)
from .wire import (
    Frame,
    FrameDecoder,
    Reassembler,
    WireError,
    WireKind,
    WireMessage,
    encode_array,
    encode_frame,
    split_message,
)

__all__ = [
    "BARRIER_PRIORITY",
    "CONTROL_PRIORITY",
    "ChaosChannel",
    "ChunkRecord",
    "Frame",
    "FrameDecoder",
    "LiveAggregatorError",
    "LiveClusterConfig",
    "LiveRunError",
    "LiveRunResult",
    "LiveWorkerError",
    "PrioritySender",
    "Reassembler",
    "ReliableInbox",
    "ReliableOutbox",
    "ReliableReceiver",
    "RetryPolicy",
    "TokenBucket",
    "TransportError",
    "WireError",
    "WireKind",
    "WireMessage",
    "encode_array",
    "encode_frame",
    "goodput_bytes_per_s",
    "split_message",
    "timeline_utilization",
]
