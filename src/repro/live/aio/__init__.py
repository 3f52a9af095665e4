"""Asyncio live substrate: the whole cluster on one event loop.

Everything in :mod:`repro.live` rebuilt on one event loop — same v2
wire protocol, same Go-Back-N reliability, same chaos injection, same
numerics — for a fixed set of workers and shards.  See
``docs/live.md`` for the architecture.
"""

from .aggregator import AioAggregator
from .driver import run_live_aio
from .node import Node, PeerConnection
from .server import AioServerShard
from .transport import (
    AsyncPrioritySender,
    chaos_policy,
    open_connection_with_retry,
)
from .worker import AioWorker

__all__ = [
    "AioAggregator",
    "AioServerShard",
    "AioWorker",
    "AsyncPrioritySender",
    "Node",
    "PeerConnection",
    "chaos_policy",
    "open_connection_with_retry",
    "run_live_aio",
]
