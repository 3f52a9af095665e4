"""Tests of the functional data plane (:mod:`repro.kvstore`)."""

from __future__ import annotations

import numpy as np

from repro.kvstore import DistributedStore
from repro.placement import (KVSTORE_BIG_LAYER_THRESHOLD, PlacementSpec,
                             plan_keys)


def planned_store(params, n_workers, n_servers, *, slice_params=None,
                  threshold=KVSTORE_BIG_LAYER_THRESHOLD, seed=0,
                  placement=PlacementSpec(), **optimizer) -> DistributedStore:
    """An uninitialized store over the key table ``params`` plans to:
    slices of ``slice_params`` (P3), or KVStore's ``threshold`` split
    when it is None (the baseline)."""
    table = plan_keys([np.size(value) for value in params.values()],
                      n_servers, slice_params=slice_params,
                      threshold=threshold, rng=np.random.default_rng(seed),
                      spec=placement, n_workers=n_workers)
    return DistributedStore(table, n_workers, n_servers, **optimizer)
