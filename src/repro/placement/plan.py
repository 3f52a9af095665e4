"""Placement planning: who serves which key, and through whom.

P3's original layout (Section 4.2) deals slices to servers round-robin,
which balances load only when every key is the same size.  Parameter Hub
(arXiv:1805.07891) and Parameter Box (arXiv:1801.09805) show that
rack-scale parameter servers need three more mechanisms, all of which
this module plans *declaratively*, for
:func:`repro.placement.keyplan.plan_keys` to apply to every substrate's
key table:

* **load-balanced assignment** — greedy bin-packing (LPT) of keys onto
  shards by measured demand, with a guarantee that it never does worse
  than round-robin on the same key set;
* **hot-key splitting** — a key whose demand dwarfs the ideal per-shard
  share is split into parts served by different shards, each part
  aggregated independently (partial aggregation; the parts are disjoint
  spans, so elementwise the merged update equals the unsplit one);
* **two-tier aggregation** — workers are grouped; each group's pushes
  are combined by an intra-group aggregator before one combined push
  travels to the root shard, cutting root fan-in from W to W/g.

Demands are expressed in abstract units (parameter counts or measured
bytes).  Everything here is pure arithmetic on integers — no RNG, no
floats in the assignment itself — so the same inputs always produce the
same :class:`PlacementPlan` in every process on every substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Sequence, Tuple

PLACEMENT_POLICIES = ("round_robin", "balanced", "two_tier")


@dataclass(frozen=True)
class KeyDemand:
    """One key's load as seen by the planner.

    ``load`` is in whatever unit the caller measures (parameter counts
    for static planning, bytes from the obs counters for measured
    planning) — only ratios matter.  ``priority`` breaks ties so plans
    stay deterministic under equal loads.
    """

    key: int
    load: int
    priority: int = 0

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ValueError(f"key {self.key}: load must be positive")


@dataclass(frozen=True)
class PlacementSpec:
    """Declarative placement policy knobs (config-file friendly)."""

    policy: str = "round_robin"
    split_factor: float = 2.0   # split keys with load > factor * ideal share
    max_splits: int = 4         # at most this many parts per key
    group_size: int = 0         # two_tier: workers per aggregator group

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise ValueError(f"policy must be one of {PLACEMENT_POLICIES}, "
                             f"got {self.policy!r}")
        if self.split_factor <= 1.0:
            raise ValueError("split_factor must exceed 1")
        if self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")
        if self.group_size < 0:
            raise ValueError("group_size must be >= 0")
        if self.policy == "two_tier" and self.group_size < 1:
            raise ValueError("two_tier placement needs group_size >= 1")


@dataclass(frozen=True)
class KeyPlacement:
    """One key's resolved placement: ordered, disjoint parts.

    ``parts`` is a tuple of ``(server, size)`` pairs covering the key's
    span in order; an unsplit key has exactly one part.  Sizes are in
    the same demand units the planner consumed.
    """

    key: int
    parts: Tuple[Tuple[int, int], ...]

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(s for s, _ in self.parts)

    @property
    def total(self) -> int:
        return sum(size for _, size in self.parts)

    @property
    def is_split(self) -> bool:
        return len(self.parts) > 1


@dataclass(frozen=True)
class PlacementPlan:
    """The full placement decision for one key set.

    ``groups`` is non-empty only under two-tier policies: worker ids
    partitioned into aggregator groups (group g's combined push is the
    only thing the root shards see from its members).
    """

    n_servers: int
    spec: PlacementSpec
    placements: Tuple[KeyPlacement, ...]
    groups: Tuple[Tuple[int, ...], ...] = ()
    by_key: Dict[int, KeyPlacement] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_key",
                           {p.key: p for p in self.placements})
        if len(self.by_key) != len(self.placements):
            raise ValueError("duplicate key in placement plan")
        for p in self.placements:
            for server, size in p.parts:
                if not (0 <= server < self.n_servers):
                    raise ValueError(
                        f"key {p.key}: server {server} out of range")
                if size <= 0:
                    raise ValueError(f"key {p.key}: empty part")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_of(self, worker: int) -> int:
        for g, members in enumerate(self.groups):
            if worker in members:
                return g
        raise KeyError(f"worker {worker} belongs to no group")

    def server_loads(self) -> List[int]:
        loads = [0] * self.n_servers
        for p in self.placements:
            for server, size in p.parts:
                loads[server] += size
        return loads

    def max_load(self) -> int:
        return max(self.server_loads())


def round_robin_max_load(demands: Sequence[KeyDemand],
                         n_servers: int) -> int:
    """Max shard load of the classic deal: key i -> server i % n."""
    loads = [0] * n_servers
    for i, d in enumerate(demands):
        loads[i % n_servers] += d.load
    return max(loads)


def split_demand(load: int, n_parts: int) -> Tuple[int, ...]:
    """Split a load into ``n_parts`` near-equal positive sizes.

    The codebase's one balanced split (first ``extra`` parts get one
    more unit): :func:`repro.placement.keyplan.plan_keys` cuts slices,
    threshold shards and re-packed parts with it, so splitting a key's
    demand and splitting its parameter span agree exactly.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    n_parts = min(n_parts, load)  # never create empty parts
    base, extra = divmod(load, n_parts)
    return tuple(base + (1 if i < extra else 0) for i in range(n_parts))


def worker_groups(n_workers: int, group_size: int) -> Tuple[Tuple[int, ...], ...]:
    """Partition workers into contiguous aggregator groups.

    The final group may be ragged (fewer than ``group_size`` members)
    when ``n_workers`` is not a multiple — every worker belongs to
    exactly one group either way.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if group_size < 1:
        raise ValueError("group_size must be positive")
    return tuple(
        tuple(range(lo, min(lo + group_size, n_workers)))
        for lo in range(0, n_workers, group_size)
    )


def lease_block(free_slots: Sequence[int], n: int) -> Tuple[int, ...]:
    """Pick ``n`` machine slots from a free pool, preferring the lowest
    contiguous run.

    Multi-tenant admission (:class:`repro.tenancy.ClusterLease`) carves
    each job's worker machines out of one shared pool; a contiguous
    block mirrors the locality guarantee :func:`worker_groups` gives
    within a job (adjacent machines, rack-friendly).  Falls back to the
    ``n`` lowest free slots when the pool is fragmented.  Deterministic
    for a given pool.
    """
    if n < 1:
        raise ValueError("n must be positive")
    free = sorted(free_slots)
    if n > len(free):
        raise ValueError(f"need {n} slots but only {len(free)} free")
    for i in range(len(free) - n + 1):
        if free[i + n - 1] - free[i] == n - 1:
            return tuple(free[i:i + n])
    return tuple(free[:n])


def _split_all(demands: Sequence[KeyDemand], n_servers: int,
               spec: PlacementSpec) -> List[Tuple[KeyDemand, int, int]]:
    """Expand hot keys into parts: (demand, part_index, part_size).

    A key is *hot* when its load exceeds ``split_factor`` times the
    ideal per-shard share; it is split into enough parts to bring each
    part near the ideal, capped by ``max_splits`` and ``n_servers``.
    """
    total = sum(d.load for d in demands)
    ideal = total / n_servers
    parts: List[Tuple[KeyDemand, int, int]] = []
    for d in demands:
        if ideal > 0 and d.load > spec.split_factor * ideal:
            n_parts = min(spec.max_splits, n_servers,
                          max(1, -(-d.load // max(1, int(ideal)))))
        else:
            n_parts = 1
        for idx, size in enumerate(split_demand(d.load, n_parts)):
            parts.append((d, idx, size))
    return parts


def plan_placement(demands: Sequence[KeyDemand], n_servers: int,
                   spec: PlacementSpec,
                   n_workers: int = 0) -> PlacementPlan:
    """Compute the placement plan for one key set.

    * ``round_robin`` — key i (in input order) goes whole to server
      ``i % n_servers``; the P3 baseline, kept as a policy so figures
      can sweep it through the same plumbing.
    * ``balanced`` — hot keys are split (see :func:`_split_all`), then
      every part is packed greedily onto the least-loaded shard, largest
      part first (LPT).  If the greedy result's max shard load ever
      exceeds round-robin's on the same (unsplit) key set, the plan
      falls back to round-robin — so *balanced never loses to
      round-robin*, by construction.
    * ``two_tier`` — balanced assignment plus worker groups of
      ``spec.group_size`` (requires ``n_workers``).

    Deterministic: ties break on (priority, key, part index), never on
    hashing or RNG state.
    """
    if n_servers < 1:
        raise ValueError("n_servers must be positive")
    if not demands:
        raise ValueError("demands must be non-empty")
    if len({d.key for d in demands}) != len(demands):
        raise ValueError("duplicate keys in demands")

    groups: Tuple[Tuple[int, ...], ...] = ()
    if spec.policy == "two_tier":
        if n_workers < 1:
            raise ValueError("two_tier placement needs n_workers")
        groups = worker_groups(n_workers, spec.group_size)

    if spec.policy == "round_robin":
        placements = tuple(
            KeyPlacement(d.key, ((i % n_servers, d.load),))
            for i, d in enumerate(demands))
        return PlacementPlan(n_servers, spec, placements, groups)

    # balanced / two_tier: split hot keys, LPT-pack the parts.
    parts = _split_all(demands, n_servers, spec)
    order = sorted(range(len(parts)),
                   key=lambda i: (-parts[i][2], parts[i][0].priority,
                                  parts[i][0].key, parts[i][1]))
    heap: List[Tuple[int, int]] = [(0, s) for s in range(n_servers)]
    heapify(heap)
    assigned: Dict[Tuple[int, int], int] = {}  # (key, part_idx) -> server
    for i in order:
        d, idx, size = parts[i]
        load, server = heappop(heap)
        assigned[(d.key, idx)] = server
        heappush(heap, (load + size, server))

    greedy_max = max(load for load, _ in heap)
    if greedy_max > round_robin_max_load(demands, n_servers):
        # LPT on split parts can only beat or tie RR in practice, but the
        # property "balanced <= round_robin max load" is promised, not
        # hoped for: fall back when packing ever loses.
        placements = tuple(
            KeyPlacement(d.key, ((i % n_servers, d.load),))
            for i, d in enumerate(demands))
        return PlacementPlan(n_servers, spec, placements, groups)

    by_key: Dict[int, List[Tuple[int, int]]] = {}
    for d, idx, size in parts:
        by_key.setdefault(d.key, []).append((idx, size))
    placements_list: List[KeyPlacement] = []
    for d in demands:
        key_parts = sorted(by_key[d.key])
        placements_list.append(KeyPlacement(
            d.key,
            tuple((assigned[(d.key, idx)], size) for idx, size in key_parts)))
    return PlacementPlan(n_servers, spec, tuple(placements_list), groups)


def coverage_check(demands: Iterable[KeyDemand],
                   plan: PlacementPlan) -> None:
    """Raise if any key is missing, duplicated, or partially covered.

    The executable form of the property suite's core invariant: every
    key is covered exactly once across shards/splits.
    """
    seen = set()
    for d in demands:
        if d.key in seen:
            raise ValueError(f"key {d.key} appears twice in demands")
        seen.add(d.key)
        placement = plan.by_key.get(d.key)
        if placement is None:
            raise ValueError(f"key {d.key} missing from plan")
        if placement.total != d.load:
            raise ValueError(
                f"key {d.key}: parts cover {placement.total} of {d.load}")
    extra = set(plan.by_key) - seen
    if extra:
        raise ValueError(f"plan places unknown keys {sorted(extra)}")
