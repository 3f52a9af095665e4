"""The key plan: how layers become synchronization keys, written once.

P3 schedules *keys*, not layers.  A key is a contiguous span of one
layer's parameters bound to a server shard and a priority, and the paper
gives two rules for cutting layers into keys:

* **slicing** (Section 4.2, P3) — every layer is cut into balanced
  slices of at most ``slice_params`` parameters (50 000 is the paper's
  optimum, Section 5.7) and the slices are dealt to the shards
  round-robin, the deal continuing across layers;
* **threshold split** (Section 4.1, MXNet KVStore) — a layer above
  ``threshold`` parameters (10^6) is split equally among *all* shards,
  a smaller one goes whole to a pseudo-randomly chosen shard.

:func:`plan_keys` applies one of them, then lets
:func:`~repro.placement.plan.plan_placement` re-pack the result when a
non-round-robin :class:`~repro.placement.plan.PlacementSpec` is given.
The simulator (:meth:`repro.strategies.StrategyConfig.plan`) and the
live cluster (:meth:`repro.live.LiveClusterConfig.key_plan`, whose
tables its nodes and the in-process store execute) both call it, so
their key tables agree by construction: same inputs, same table.

The rng is consumed in one fixed order — one ``rng.integers(n_servers)``
per layer the threshold rule leaves whole, in forward order — and keys
are numbered densely in (layer, span) order; the golden trace and the
live bit-identity suites depend on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..models.base import BYTES_PER_PARAM
from .plan import (KeyDemand, PlacementPlan, PlacementSpec, plan_placement,
                   split_demand)

DEFAULT_SLICE_PARAMS = 50_000
KVSTORE_BIG_LAYER_THRESHOLD = 1_000_000


@dataclass(frozen=True)
class PlacedKey:
    """One synchronization key: a span of a layer on a server shard."""

    key: int           # dense, globally unique
    layer_index: int   # forward-pass index of the owning layer
    params: int        # parameters in the span
    priority: int      # lower = more urgent (inherited from the layer)
    server: int
    offset: int = 0    # first parameter of the span within its layer

    @property
    def bytes(self) -> int:
        return self.params * BYTES_PER_PARAM

    @property
    def span(self) -> slice:
        """Where the key lives in its layer's flattened array."""
        return slice(self.offset, self.offset + self.params)


@dataclass(frozen=True)
class KeyTable:
    """A model's complete key plan; iterates and indexes as its keys.

    ``placement`` is the :class:`PlacementPlan` that re-packed the table
    (``None`` under round-robin); ``by_layer`` groups the keys by owning
    layer, in span order, and ``by_server`` maps each shard's key ids to
    its keys, in table order.  Both are built in one pass and are
    read-only.
    """

    keys: Tuple[PlacedKey, ...]
    placement: Optional[PlacementPlan] = None
    by_layer: Tuple[Tuple[PlacedKey, ...], ...] = field(
        init=False, repr=False, compare=False)
    by_server: Tuple[Dict[int, PlacedKey], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layers: List[List[PlacedKey]] = [
            [] for _ in range(self.keys[-1].layer_index + 1)]
        shards: List[Dict[int, PlacedKey]] = [
            {} for _ in range(max(pk.server for pk in self.keys) + 1)]
        for pk in self.keys:
            layers[pk.layer_index].append(pk)
            shards[pk.server][pk.key] = pk
        object.__setattr__(self, "by_layer", tuple(map(tuple, layers)))
        object.__setattr__(self, "by_server", tuple(shards))

    def __iter__(self) -> Iterator[PlacedKey]:
        return iter(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        return self.keys[index]

    @property
    def groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Two-tier worker groups (empty under flat topologies)."""
        return self.placement.groups if self.placement is not None else ()

    def on_server(self, server: int) -> Dict[int, PlacedKey]:
        """Shard ``server``'s keys in table order (shared; do not mutate)."""
        if server < len(self.by_server):
            return self.by_server[server]
        return {}


def _cut(out: List[PlacedKey], layer_index: int, priority: int, offset: int,
         sizes: Iterable[int], servers: Iterable[int]) -> None:
    """Append consecutive spans of one layer, numbering keys densely."""
    for size, server in zip(sizes, servers):
        out.append(PlacedKey(len(out), layer_index, size, priority, server,
                             offset))
        offset += size


def plan_keys(layer_params: Sequence[int], n_servers: int, *,
              slice_params: Optional[int], rng: np.random.Generator,
              threshold: int = KVSTORE_BIG_LAYER_THRESHOLD,
              priorities: Optional[Sequence[int]] = None,
              spec: PlacementSpec = PlacementSpec(),
              n_workers: int = 0,
              measured_loads: Optional[Mapping[int, int]] = None,
              ) -> KeyTable:
    """Cut layers into keys, place them, and re-pack them under ``spec``.

    ``layer_params`` are per-layer parameter counts in forward order.
    ``slice_params`` selects the rule: a slice size for P3's slicing,
    ``None`` for KVStore's threshold split.  ``priorities`` defaults to
    the forward index (the paper's policy).  ``measured_loads`` maps a
    key of the *un-repacked* table to its measured demand
    (:func:`repro.placement.measured_demands`); keys it does not name
    weigh their parameter count.
    """
    if n_servers <= 0:
        raise ValueError("n_servers must be positive")
    if slice_params is not None and slice_params <= 0:
        raise ValueError("slice_params must be positive or None")
    if priorities is None:
        priorities = range(len(layer_params))
    elif len(priorities) != len(layer_params):
        raise ValueError("priorities must have one entry per layer")
    if not layer_params:
        raise ValueError("a key plan needs at least one layer")

    keys: List[PlacedKey] = []
    for index, (params, priority) in enumerate(zip(layer_params, priorities)):
        if params <= 0:
            raise ValueError(f"layer {index} has no parameters")
        if slice_params is not None:
            sizes = split_demand(params, -(-params // slice_params))
            first = len(keys)  # the round-robin deal continues across layers
            servers = [(first + i) % n_servers for i in range(len(sizes))]
        elif params > threshold and n_servers > 1:
            sizes, servers = split_demand(params, n_servers), range(n_servers)
        else:
            sizes, servers = (params,), (int(rng.integers(n_servers)),)
        _cut(keys, index, priority, 0, sizes, servers)

    if spec.policy == "round_robin":
        return KeyTable(tuple(keys))
    # Re-pack by load: every key may move and hot keys may split, each
    # part covering a sub-span of the key it came from.
    loads = measured_loads or {}
    placement = plan_placement(
        [KeyDemand(pk.key, loads.get(pk.key) or pk.params, pk.priority)
         for pk in keys],
        n_servers, spec, n_workers=n_workers)
    repacked: List[PlacedKey] = []
    for pk in keys:
        servers = placement.by_key[pk.key].servers
        _cut(repacked, pk.layer_index, pk.priority, pk.offset,
             split_demand(pk.params, len(servers)), servers)
    return KeyTable(tuple(repacked), placement)
