"""The end-of-run replica comparison both live drivers share.

Bit-identical replicas are the data plane's contract, so a mismatch is a
transport bug.  Overflowed parameters are not: NaN != NaN, and reporting
a run whose learning rate blew it up as "replica divergence" sends the
reader to the wrong layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.live.result import LiveRunError, agreed_params


def _replicas(n: int = 3):
    return {w: {"w0": np.arange(6.0).reshape(2, 3), "b0": np.ones(3)}
            for w in range(n)}


def test_identical_replicas_return_the_first_workers_params():
    params = _replicas()
    assert agreed_params(params, range(3)) is params[0]


def test_only_the_listed_workers_are_compared():
    params = _replicas()
    params[1]["b0"] = np.zeros(3)  # left mid-run, frozen at an old round
    assert agreed_params(params, (2, 0)) is params[2]


def test_a_real_mismatch_is_a_replica_divergence():
    params = _replicas()
    params[2]["w0"] = params[2]["w0"] + 1e-12
    with pytest.raises(LiveRunError, match="replica divergence: worker 2 "
                                           "disagrees with worker 0 on 'w0'"):
        agreed_params(params, range(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_params_are_numerical_divergence_not_a_data_plane_bug(bad):
    """Every replica overflowed identically: array_equal would still say
    "not equal" for NaN and blame the transport."""
    params = _replicas()
    for replica in params.values():
        replica["b0"] = np.array([1.0, bad, 1.0])
    with pytest.raises(LiveRunError, match="diverged numerically") as exc:
        agreed_params(params, range(3))
    assert "replica divergence" not in str(exc.value)
    assert "'b0'" in str(exc.value)
