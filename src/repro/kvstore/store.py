"""The worker-facing distributed key-value store (functional data plane).

:class:`DistributedStore` moves *real* numpy gradients through one key
table: ``round()`` performs one synchronous iteration — every client
pushes every key, shards aggregate and update, workers pull and
reassemble.  The table comes from outside: the planner
(:func:`repro.placement.plan_keys`) cuts it by MXNet KVStore's rule
(Section 4.1: whole arrays, ones above 10^6 parameters split across all
shards) or by P3's (Section 4.2: slices dealt round-robin), and the
store only executes it.

A shard accumulates a key's contributions in client order whatever
order the keys arrive in, so slicing, placement and priority cannot
change a value: stores over the baseline's and P3's tables produce
bit-identical parameters — the functional form of the paper's "P3 does
not affect model convergence" (Section 5.6), which the test suite
asserts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..placement.keyplan import KeyTable
from ..training.optim import SGD
from .server import ServerShard, scatter_add


class DistributedStore:
    """Push/aggregate/pull and reassembly over one planned key table.

    ``table`` fixes the keys, their shards and, under two-tier
    placement, the worker groups whose aggregators push one partial sum
    each.
    """

    def __init__(self, table: KeyTable, n_workers: int, n_servers: int,
                 lr: float = 0.1, momentum: float = 0.9,
                 weight_decay: float = 0.0) -> None:
        if n_workers <= 0 or n_servers <= 0:
            raise ValueError("n_workers and n_servers must be positive")
        self.n_workers = n_workers
        self.table = table
        # Two-tier: each shard sees one partial sum per group instead of
        # one gradient per worker.
        self.groups: Tuple[Tuple[int, ...], ...] = table.groups
        n_clients = len(self.groups) if self.groups else n_workers
        denominator = n_workers if self.groups else None
        self.shards = [
            ServerShard(s, n_clients, SGD(lr, momentum, weight_decay),
                        denominator=denominator)
            for s in range(n_servers)
        ]
        self._names: List[str] = []   # forward order; key.layer_index indexes it
        self._shapes: Dict[str, Tuple[int, ...]] = {}
        self._initialized = False

    def init(self, params: Dict[str, np.ndarray]) -> None:
        """Install initial parameters; dict order is the table's layer
        order, and each array must have its layer's parameter count."""
        if self._initialized:
            raise RuntimeError("store already initialized")
        sizes = [int(value.size) for value in params.values()]
        planned = [sum(pk.params for pk in layer)
                   for layer in self.table.by_layer]
        if sizes != planned:
            raise ValueError(f"params have layer sizes {sizes}; the key "
                             f"table was planned for {planned}")
        self._names = list(params)
        self._shapes = {name: value.shape for name, value in params.items()}
        flats = self._flatten(params)
        for pk in self.table:
            self.shards[pk.server].init_key(pk.key,
                                            flats[pk.layer_index][pk.span])
        self._initialized = True

    def _flatten(self, arrays: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """Per-layer flat fp64 views, indexed by ``PlacedKey.layer_index``."""
        return [np.asarray(arrays[name], dtype=np.float64).ravel()
                for name in self._names]

    # ------------------------------------------------------------------
    # Synchronous round
    # ------------------------------------------------------------------
    def round(self, worker_grads: Sequence[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
        """One iteration: all workers push all keys; returns new params.

        ``worker_grads`` holds one ``{name: gradient}`` dict per worker.
        """
        self._check_round(worker_grads, "gradient")
        return self._round_dense(worker_grads, self._flatten)

    def round_sparse(
        self,
        worker_sparse: Sequence[Dict[str, Tuple[np.ndarray, np.ndarray]]],
    ) -> Dict[str, np.ndarray]:
        """One iteration with DGC-style sparse pushes.

        ``worker_sparse`` holds, per worker, ``{name: (indices, values)}``
        with array-local flat indices (the output of
        :meth:`repro.training.dgc.DGCCompressor.compress`).  Each
        contribution is partitioned across the name's key spans, so
        compression composes with slicing and sharding.  Under two-tier
        grouping an aggregator has to densify its members' contributions
        to sum them, so the shards see one dense partial per group.
        """
        self._check_round(worker_sparse, "sparse")
        if self.groups:
            return self._round_dense(worker_sparse, self._densify)
        for worker, sparse in enumerate(worker_sparse):
            for pk in self.table:
                idx, values = sparse[self._names[pk.layer_index]]
                idx = np.asarray(idx, dtype=np.int64)
                values = np.asarray(values, dtype=np.float64)
                in_span = (idx >= pk.offset) & (idx < pk.offset + pk.params)
                self.shards[pk.server].push_sparse(
                    worker, pk.key, idx[in_span] - pk.offset,
                    values[in_span])
        return self.pull_all()

    def _check_round(self, per_worker: Sequence[Dict[str, object]],
                     what: str) -> None:
        self._check_ready()
        if len(per_worker) != self.n_workers:
            raise ValueError(f"expected {self.n_workers} {what} dicts")
        for contribution in per_worker:
            if set(contribution) != set(self._shapes):
                raise KeyError(
                    f"{what} names do not match initialized params")

    def _round_dense(self, per_worker: Sequence[Dict[str, object]],
                     flats_of) -> Dict[str, np.ndarray]:
        """Push one dense contribution per client, where
        ``flats_of(contribution)`` gives a worker's per-layer flats."""
        if self.groups:
            # Two-tier: each group's aggregator pushes one partial sum
            # (members added in worker-id order, exactly as the live
            # aggregator node does); shards count groups and divide by
            # the true worker count.
            contributions = []
            for members in self.groups:
                flats = flats_of(per_worker[members[0]])
                for w in members[1:]:
                    flats = [acc + flat for acc, flat in
                             zip(flats, flats_of(per_worker[w]))]
                contributions.append(flats)
        else:
            contributions = [flats_of(c) for c in per_worker]
        for client, flats in enumerate(contributions):
            for pk in self.table:
                self.shards[pk.server].push(
                    client, pk.key, flats[pk.layer_index][pk.span])
        return self.pull_all()

    def _densify(self, sparse: Dict[str, Tuple[np.ndarray, np.ndarray]]
                 ) -> List[np.ndarray]:
        """One worker's sparse contribution as per-layer dense flats."""
        flats = []
        for name in self._names:
            dense = np.zeros(int(np.prod(self._shapes[name])))
            scatter_add(dense, *sparse[name], f"array {name!r}")
            flats.append(dense)
        return flats

    def pull_all(self) -> Dict[str, np.ndarray]:
        """Reassemble every parameter array from its shards."""
        self._check_ready()
        out: Dict[str, np.ndarray] = {}
        for name, layer_keys in zip(self._names, self.table.by_layer):
            shape = self._shapes[name]
            flat = np.empty(int(np.prod(shape)), dtype=np.float64)
            for pk in layer_keys:
                flat[pk.span] = self.shards[pk.server].pull(pk.key)
            out[name] = flat.reshape(shape)
        return out

    def set_lr(self, lr: float) -> None:
        for shard in self.shards:
            shard.optimizer.lr = lr

    def _check_ready(self) -> None:
        if not self._initialized:
            raise RuntimeError("store not initialized; call init() first")
