"""Allreduce extension: P3's principles applied to collective aggregation
(Sections 2 and 6 of the paper argue the design generalizes beyond parameter
servers — this package tests that claim)."""

from .buckets import Bucket, fused_buckets, sliced_buckets, total_bytes
from .rings import RingCostModel
from .sim import (
    AllreduceConfig,
    AllreduceResult,
    AllreduceStrategy,
    framework_bucketing,
    priority_allreduce,
    simulate_allreduce,
    unsliced_priority_allreduce,
)

__all__ = [
    "AllreduceConfig",
    "AllreduceResult",
    "AllreduceStrategy",
    "Bucket",
    "RingCostModel",
    "framework_bucketing",
    "fused_buckets",
    "priority_allreduce",
    "simulate_allreduce",
    "sliced_buckets",
    "total_bytes",
    "unsliced_priority_allreduce",
]
