"""Functional KVStore data plane: real gradients through slicing,
placement, aggregation and reassembly (the value-level counterpart of
the timing simulator)."""

from .server import ServerShard
from .store import DistributedStore
from .trainer import train_with_store

__all__ = [
    "DistributedStore",
    "ServerShard",
    "train_with_store",
]
