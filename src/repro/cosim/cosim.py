"""Co-simulation: real training trajectories on simulated wall-clock.

Couples the two substrates: the numpy harness supplies the *accuracy*
trajectory of a sync method (exact / DGC / ASGD / local SGD), and the
event simulator supplies per-iteration *wall-clock* for the matching
transmission strategy on a chosen workload and network.  The result is
an accuracy-over-time curve for each (method, strategy) system — the
generalization of the paper's Figure 15 to every system it discusses.

Pairings (value semantics ↔ timing semantics):

| system | training method | timing strategy |
|---|---|---|
| baseline (MXNet) | exact | `strategies.baseline()` |
| P3 | exact | `strategies.p3()` — same values, faster clock |
| DGC | dgc | `strategies.dgc_timing(density)` |
| ASGD | asgd | `strategies.asgd()` |

The driver that runs them is :func:`repro.analysis.compare_systems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..strategies import StrategyConfig
from ..strategies import asgd as asgd_strategy
from ..strategies import baseline as baseline_strategy
from ..strategies import dgc_timing
from ..strategies import p3 as p3_strategy
from ..training import DGCConfig


@dataclass(frozen=True)
class SystemSpec:
    """One end-to-end system: value semantics + transmission timing."""

    name: str
    method: str                  # repro.training sync rule
    strategy: StrategyConfig     # repro.sim transmission strategy
    dgc_config: Optional[DGCConfig] = None


def paper_systems(dgc_density: float = 0.01) -> List[SystemSpec]:
    """The four systems the paper compares, ready to co-simulate."""
    return [
        SystemSpec("baseline", "exact", baseline_strategy()),
        SystemSpec("p3", "exact", p3_strategy()),
        SystemSpec("dgc", "dgc", dgc_timing(min(0.5, dgc_density)),
                   DGCConfig(density=dgc_density)),
        SystemSpec("asgd", "asgd", asgd_strategy()),
    ]

