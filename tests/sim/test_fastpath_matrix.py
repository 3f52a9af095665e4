"""Bit-identity of the engine's run loop and its debug wrapper, and the
counter mechanics the golden trace cannot see from the outside.

The engine has one run loop plus the step-dispatched wrapper that
``REPRO_SIM_DEBUG``, ``until=`` / ``max_events=`` and an instrumented
``step`` select.  Both must reproduce the golden-trace reference
workload byte for byte; ``events_processed`` / ``pending`` must be exact
whenever a callback reads them (the warm-start verifier does, at every
iteration boundary); and cancelling a handle after its event fired must
stay a no-op.  Static-vs-dynamic channel identity lives in
``test_static_dynamic_identity.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from tests.obs.test_golden_trace import build_canonical_trace


@pytest.mark.perf
def test_golden_trace_identical_in_default_and_debug_mode(monkeypatch):
    """Debug mode (step dispatch + periodic invariant checks) observes,
    never perturbs; ``tests/obs/test_golden_trace.py`` pins the default
    loop to the committed file."""
    monkeypatch.delenv("REPRO_SIM_DEBUG", raising=False)
    default = build_canonical_trace()
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    assert build_canonical_trace() == default


@pytest.mark.parametrize("debug", [False, True])
def test_counters_exact_mid_run(debug):
    """A callback sees itself already counted and off the queue, and a
    cancelled entry still in the heap is not pending."""
    sim = Simulator(debug=debug)
    snapshots = []

    def observe() -> None:
        snapshots.append((sim.events_processed, sim.pending))

    for t in (1.0, 2.0, 3.0):
        sim.after(t, lambda: None)
    sim.schedule(4.0, observe)
    doomed = sim.schedule(5.0, lambda: None)
    sim.after(6.0, doomed.cancel)  # stale by then: fired at t=5
    sim.schedule_at_batch([7.0, 8.0], lambda: None)
    cancelled = sim.schedule(8.5, lambda: None)
    cancelled.cancel()
    sim.schedule(9.0, observe)
    assert sim.pending == 9
    sim.run()
    assert snapshots == [(4, 5), (9, 0)]
    assert sim.events_processed == 9 and sim.pending == 0
    sim.check_invariants()


@pytest.mark.parametrize("debug", [False, True])
def test_cancel_after_fire_is_noop(debug):
    """Cancelling a handle whose event already ran must not corrupt the
    pending count (regression: double-decrement)."""
    sim = Simulator(debug=debug)
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    sim.run()
    assert fired == [1] and sim.pending == 0
    handle.cancel()
    assert sim.pending == 0
    sim.check_invariants()
    sim.schedule(2.0, fired.append, 2)
    assert sim.pending == 1
    sim.run()
    assert fired == [1, 2] and sim.pending == 0
