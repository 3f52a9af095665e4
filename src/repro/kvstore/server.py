"""Functional parameter-server shard operating on real numpy arrays.

The timing simulator (:mod:`repro.sim`) models *when* bytes move; this
package models *what* they contain.  A :class:`ServerShard` owns the
authoritative values of its keys, buffers gradient pushes from each
worker, and runs the optimizer once all workers contributed — exactly
KVServer's contract (Section 4.1 of the paper).

Keys are opaque integers; the worker-side stores (:mod:`.baseline`,
:mod:`.p3`) decide what a key means (a whole layer shard or a P3 slice).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..training.optim import SGD


def scatter_add(accum: np.ndarray, indices: np.ndarray, values: np.ndarray,
                what: str) -> None:
    """``accum[indices] += values`` for a sparse contribution (repeated
    positions accumulate), refusing ragged or out-of-range input."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.shape != values.shape:
        raise ValueError("indices and values must have the same shape")
    if indices.size and (indices.min() < 0 or indices.max() >= accum.size):
        raise IndexError(f"sparse indices out of range for {what}")
    np.add.at(accum, indices, values)


class ServerShard:
    """One PS shard: aggregation buffers + optimizer state for its keys."""

    def __init__(self, server_id: int, n_workers: int, optimizer: SGD,
                 denominator: int | None = None) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if denominator is not None and denominator <= 0:
            raise ValueError("denominator must be positive")
        self.sid = server_id
        self.n_workers = n_workers
        # Two-tier topology: the shard's ``n_workers`` clients are group
        # aggregators pushing partial sums, but the gradient mean still
        # divides by the true worker count.
        self.denominator = denominator if denominator is not None else n_workers
        self.optimizer = optimizer
        self.values: Dict[int, np.ndarray] = {}
        self._accum: Dict[int, np.ndarray] = {}
        self._contributed: Dict[int, Set[int]] = {}
        self.updates_applied = 0

    # ------------------------------------------------------------------
    def init_key(self, key: int, value: np.ndarray) -> None:
        """Install the initial value of a key (flat fp64 array)."""
        if key in self.values:
            raise KeyError(f"key {key} already initialized on shard {self.sid}")
        self.values[key] = np.array(value, dtype=np.float64).ravel()
        self._accum[key] = np.zeros_like(self.values[key])
        self._contributed[key] = set()

    def push(self, worker: int, key: int, grad: np.ndarray) -> bool:
        """Accumulate one worker's gradient for ``key``.

        Returns True when this push completed the round (all workers
        contributed) and the update was applied — the moment KVServer
        would notify/broadcast.
        """
        return self._contribute(worker, key, None, grad)

    def push_sparse(self, worker: int, key: int, indices: np.ndarray,
                    values: np.ndarray) -> bool:
        """Accumulate a sparse gradient contribution (DGC-style).

        ``indices`` are key-local flat positions.  Returns True when the
        round completed, as :meth:`push` does.
        """
        return self._contribute(worker, key, indices, values)

    def _contribute(self, worker: int, key: int,
                    indices: Optional[np.ndarray], values: np.ndarray) -> bool:
        """The one path a contribution takes — dense (``indices`` is
        None) or sparse: validate, accumulate, complete the round on the
        last one."""
        if key not in self.values:
            raise KeyError(f"key {key} not on shard {self.sid}")
        if worker in self._contributed[key]:
            raise RuntimeError(
                f"worker {worker} pushed key {key} twice in one round")
        accum = self._accum[key]
        if indices is None:
            values = np.asarray(values, dtype=np.float64).ravel()
            if values.shape != accum.shape:
                raise ValueError(
                    f"key {key}: gradient shape {values.shape} != value "
                    f"shape {accum.shape}")
            accum += values
        else:
            scatter_add(accum, indices, values, f"key {key}")
        self._contributed[key].add(worker)
        if len(self._contributed[key]) == self.n_workers:
            self._apply_update(key)
            return True
        return False

    def _apply_update(self, key: int) -> None:
        mean_grad = self._accum[key] / self.denominator
        # The optimizer works on named dicts; use the key as the name so
        # per-key momentum buffers stay independent (as ps-lite's do).
        self.optimizer.step({key: self.values[key]}, {key: mean_grad})
        self._accum[key][...] = 0.0
        self._contributed[key].clear()
        self.updates_applied += 1

    # ------------------------------------------------------------------
    # Elastic re-placement (repro.live.membership): keys move between
    # shards at epoch boundaries, carrying their optimizer state so the
    # update stream stays bit-identical regardless of which shard hosts
    # the key.  Export/adopt is only legal between rounds (no partial
    # contributions outstanding).
    # ------------------------------------------------------------------
    def export_key(self, key: int) -> tuple:
        """Remove ``key`` and return ``(value, velocity)`` for handoff."""
        if key not in self.values:
            raise KeyError(f"key {key} not on shard {self.sid}")
        if self._contributed[key]:
            raise RuntimeError(
                f"key {key} has pending contributions; cannot migrate "
                "mid-round")
        value = self.values.pop(key)
        del self._accum[key]
        del self._contributed[key]
        velocity = self.optimizer.export_state(key)
        return value, velocity

    def adopt_key(self, key: int, value: np.ndarray,
                  velocity: np.ndarray | None = None) -> None:
        """Install a migrated key with its optimizer state."""
        self.init_key(key, value)
        self.optimizer.adopt_state(key, velocity)

    def pull(self, key: int) -> np.ndarray:
        """Read the current value of a key (a copy, like a network reply)."""
        if key not in self.values:
            raise KeyError(f"key {key} not on shard {self.sid}")
        return self.values[key].copy()

    @property
    def keys(self) -> List[int]:
        return sorted(self.values)

    @property
    def total_params(self) -> int:
        return sum(v.size for v in self.values.values())
