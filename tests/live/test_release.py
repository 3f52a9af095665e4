"""A finished live run frees itself: once :func:`run_live_aio` returns,
no object of the run's nodes, connections or senders waits in a
reference cycle for the collector."""

from __future__ import annotations

import gc
from collections import Counter

from repro.live.aio import run_live_aio
from tests.scenarios import live_cfg


def repro_objects_in_cycles(call) -> Counter:
    """Objects of ``repro`` classes that ``call()`` leaves in reference
    cycles, by class name.  The collector is off for the call, and
    everything older is frozen, so the collection after it looks at the
    call's objects only."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        if enabled:
            gc.enable()


def test_a_live_run_leaves_no_repro_object_in_a_cycle():
    left = repro_objects_in_cycles(lambda: run_live_aio(live_cfg()))
    assert not left, f"a finished live run left {dict(left)} in cycles"
