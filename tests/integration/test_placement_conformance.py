"""Cross-substrate placement conformance: one key table, executed twice.

The simulator, the in-process store and the live cluster get their key
table from the same planner (``tests/placement/test_keyplan.py`` holds
its properties and that the three tables are one).  What is left to pin
here is **round identity**: a live run under each placement policy
produces final parameters bit-identical to the in-process store's (real
sockets, so the tests are ``slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import run_inprocess
from repro.live import LiveClusterConfig
from repro.live.aio import run_live_aio

PLACEMENTS = ("round_robin", "balanced", "two_tier")


def live_cfg(placement: str, **overrides) -> LiveClusterConfig:
    defaults = dict(
        n_workers=4, n_servers=2, iterations=3, warmup=1,
        in_size=8, hidden=16, depth=1, n_train=32, n_val=16, batch_size=8,
        slice_params=1_500, rate_bytes_per_s=None, chunk_bytes=4_096,
        fwd_layer_s=0.002, bwd_layer_s=0.004, heartbeat_interval_s=0.05,
        placement=placement, split_factor=1.2, max_splits=3,
        agg_group_size=2,
    )
    defaults.update(overrides)
    return LiveClusterConfig(**defaults)


# ----------------------------------------------------------------------
# Round identity (real sockets)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_live_round_results_bit_identical_per_placement(placement):
    """Same seeded plan, real sockets vs in-process store: the final
    parameters must agree bit for bit under every placement policy —
    including split keys (balanced) and partial aggregation through a
    real aggregator node (two_tier)."""
    cfg = live_cfg(placement, rate_bytes_per_s=2_000_000.0)
    live = run_live_aio(cfg, strategy="p3")
    ref = run_inprocess(cfg, strategy="p3")
    assert set(live.final_params) == set(ref)
    for name in ref:
        np.testing.assert_array_equal(
            live.final_params[name], ref[name],
            err_msg=f"{placement}: {name} diverged from in-process store")
