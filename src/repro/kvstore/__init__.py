"""Functional KVStore data plane: real gradients through slicing,
placement, aggregation and reassembly (the value-level counterpart of
the timing simulator)."""

from .server import ServerShard
from .store import BaselineKVStore, DistributedStore, P3Store
from .trainer import train_with_store

__all__ = [
    "BaselineKVStore",
    "DistributedStore",
    "P3Store",
    "ServerShard",
    "train_with_store",
]
