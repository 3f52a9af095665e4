"""Attribute profiled self time and call counts to the repo's layers.

``src/`` has no per-layer timers, and code reached only through engine
callbacks cannot be timed from outside with spans.  The traced run wraps
the same public calls in ``cProfile`` and folds the profile by *module*:
a Python function's self time goes to the layer its file belongs to, and
a C function's (``heappush``, ``deque.append``, numpy kernels) to the
layer of whichever Python function called it — the profile keeps that
edge.  Shares therefore sum to 100 % of the profiled interval.

cProfile charges every call a fixed cost that native code does not pay,
so these are proportions for finding candidates, never end-to-end
numbers; those come from the untraced run.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Callable, Dict, Tuple, TypeVar

T = TypeVar("T")

#: (path fragment, layer) — first match wins, so files come before
#: their package.  Layer names are the ``*.self_pct`` metric prefixes.
LAYER_OF_PATH: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/engine.py", "engine"),
    ("repro/sim/_fastheap.py", "engine"),
    ("repro/sim/network.py", "network"),
    ("repro/sim/worker.py", "worker"),
    ("repro/sim/server.py", "server"),
    ("repro/sim/aggregator.py", "aggregator"),
    # Assembly and planning: sim/cluster.py (which also hosts the obs
    # channel adapter), traces, faults, key plans, placement.
    ("repro/sim/", "cluster"),
    ("repro/placement/", "cluster"),
    ("repro/core/", "cluster"),
    ("repro/strategies/", "cluster"),
    ("repro/models/", "cluster"),
    ("repro/obs/", "obs"),
    ("repro/analysis/", "analysis"),
    ("repro/tenancy/", "tenancy"),
    ("repro/live/wire.py", "wire"),
    ("repro/live/transport.py", "transport"),
    ("repro/live/aio/transport.py", "transport"),
    ("repro/live/", "aio"),
    ("repro/kvstore/", "numerics"),
    ("repro/training/", "numerics"),
    ("numpy/", "numerics"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF_PATH)) + ("other",)
PROTOCOL_LAYERS = ("worker", "server", "aggregator")


def layer_of(filename: str) -> str:
    filename = filename.replace("\\", "/")
    for fragment, layer in LAYER_OF_PATH:
        if fragment in filename:
            return layer
    return "other"  # stdlib (asyncio, json, selectors) and the harness


class Profile:
    """One profiled interval, folded by layer."""

    def __init__(self, stats: dict, wall_s: float) -> None:
        self.wall_s = wall_s
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._by_name: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for (filename, _line, name), (_cc, nc, tt, ct, callers) in \
                stats.items():
            if filename == "~":  # C function: charge each calling layer
                layer = "builtin"
                for (caller_file, _l, _n), edge in callers.items():
                    self.self_s[layer_of(caller_file)] += edge[2]
            else:
                layer = layer_of(filename)
                self.self_s[layer] += tt
                self.calls[layer] += nc
            calls, cum = self._by_name.get((layer, name), (0, 0.0))
            self._by_name[layer, name] = (calls + nc, cum + ct)
        # C functions entered from outside any profiled frame carry no
        # caller edge; keep the shares summing to the whole interval.
        self.total_s = sum(entry[2] for entry in stats.values())
        self.self_s["other"] += self.total_s - sum(self.self_s.values())
        # The outermost profiled call: cumulative times are shares of it
        # (self times lose the profiler's own bookkeeping between clock
        # reads, so their sum runs a little short of any cumulative time).
        self.outer_s = max((entry[3] for entry in stats.values()),
                           default=0.0)

    def self_pct(self) -> Dict[str, float]:
        total = self.total_s or 1.0
        return {f"{layer}.self_pct": 100.0 * s / total
                for layer, s in self.self_s.items()}

    def calls_of(self, layer: str, name: str) -> int:
        """Calls of the functions called ``name`` in ``layer``'s files."""
        return self._by_name.get((layer, name), (0, 0.0))[0]

    def cum_share_pct(self, layer: str, name: str) -> float:
        """Cumulative time under those functions, % of the outermost
        profiled call."""
        return 100.0 * self._by_name.get((layer, name), (0, 0.0))[1] \
            / (self.outer_s or 1.0)

    def heap_ops(self) -> int:
        return sum(calls for (layer, name), (calls, _)
                   in self._by_name.items()
                   if layer == "builtin"
                   and name.startswith("<built-in method _heapq."))

    def protocol_calls(self) -> int:
        return sum(self.calls[layer] for layer in PROTOCOL_LAYERS)

    def sim_metrics(self, events: int) -> Dict[str, float]:
        """Layer shares plus the per-event counts of a simulated run that
        processed ``events`` engine events under this profile."""
        m = self.self_pct()
        m["engine.heap_ops_per_event"] = self.heap_ops() / events
        m["protocol.calls_per_event"] = self.protocol_calls() / events
        return m


def profile_call(fn: Callable[[], T]) -> Tuple[T, Profile]:
    """Run ``fn()`` under cProfile; returns its result and the profile."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    return result, Profile(pstats.Stats(prof).stats, wall)
