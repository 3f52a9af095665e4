"""Key planning and pluggable key-to-server placement.

:func:`plan_keys` (:mod:`~repro.placement.keyplan`) is the one planner
every substrate calls: it cuts layers into keys by the paper's slicing
or threshold-split rule and returns the :class:`KeyTable` the
simulator, the in-process store and the live cluster all execute.
Under a non-round-robin :class:`PlacementSpec` it hands the keys to
:func:`plan_placement` (assignment + hot-key splits + worker groups)
and re-cuts them accordingly; :mod:`~repro.placement.loads` measures
per-key demands from the shared obs event stream.  See
``docs/sharding.md``.
"""

from .keyplan import (
    DEFAULT_SLICE_PARAMS,
    KVSTORE_BIG_LAYER_THRESHOLD,
    KeyTable,
    PlacedKey,
    plan_keys,
)
from .loads import key_loads_from_events, measured_demands
from .plan import (
    PLACEMENT_POLICIES,
    KeyDemand,
    KeyPlacement,
    PlacementPlan,
    PlacementSpec,
    coverage_check,
    lease_block,
    plan_placement,
    round_robin_max_load,
    split_demand,
    worker_groups,
)

__all__ = [
    "DEFAULT_SLICE_PARAMS",
    "KVSTORE_BIG_LAYER_THRESHOLD",
    "PLACEMENT_POLICIES",
    "KeyDemand",
    "KeyPlacement",
    "KeyTable",
    "PlacedKey",
    "PlacementPlan",
    "PlacementSpec",
    "coverage_check",
    "key_loads_from_events",
    "lease_block",
    "measured_demands",
    "plan_keys",
    "plan_placement",
    "round_robin_max_load",
    "split_demand",
    "worker_groups",
]
