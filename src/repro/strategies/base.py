"""Synchronization strategies as declarative configurations.

Every mechanism the paper compares differs only in four orthogonal
choices, so a strategy is a frozen config consumed by the simulator:

* **granularity** — whole layers with KVStore sharding (baseline) or
  fixed-size slices dealt round-robin (P3 / slicing-only);
* **queue discipline** — FIFO (baseline) or priority (P3) for the worker
  TX queue, the server work queue, and the server TX queue;
* **pull policy** — how updated parameters get back to workers:
  ``NOTIFY_PULL`` (MXNet KVStore: notify, then explicit pull),
  ``BROADCAST`` (P3: server pushes immediately, Section 4.2), or
  ``DEFERRED_PULL`` (TensorFlow: pulls issued only at the start of the
  next graph execution, Section 2);
* **synchrony** — wait for all workers (synchronous SGD) or update per
  push (ASGD, Appendix B.2).

``gradient_scale`` / ``param_scale`` shrink message payloads to model
compression schemes' *timing* (their accuracy effect lives in
:mod:`repro.training`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from ..core.priority import make_priorities
from ..models.base import ModelSpec
from ..placement.keyplan import DEFAULT_SLICE_PARAMS, KeyTable, plan_keys
from ..placement.plan import PlacementSpec


class PullPolicy(Enum):
    BROADCAST = "broadcast"
    NOTIFY_PULL = "notify_pull"
    DEFERRED_PULL = "deferred_pull"


@dataclass(frozen=True)
class StrategyConfig:
    """Declarative description of a parameter-synchronization mechanism."""

    name: str
    slice_params: Optional[int]  # None = layer granularity + KVStore sharding
    prioritized: bool
    pull_policy: PullPolicy
    priority_policy: str = "forward"
    async_updates: bool = False
    gradient_scale: float = 1.0
    param_scale: float = 1.0
    # ByteScheduler-style credit flow control (follow-up work to P3):
    # at most this many pushed-but-unacknowledged slices per worker;
    # None disables gating.  Requires BROADCAST (params act as acks).
    credit_slices: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slice_params is not None and self.slice_params <= 0:
            raise ValueError("slice_params must be positive or None")
        if not (0.0 < self.gradient_scale <= 1.0):
            raise ValueError("gradient_scale must be in (0, 1]")
        if not (0.0 < self.param_scale <= 1.0):
            raise ValueError("param_scale must be in (0, 1]")
        if self.credit_slices is not None:
            if self.credit_slices <= 0:
                raise ValueError("credit_slices must be positive or None")
            if self.pull_policy is not PullPolicy.BROADCAST:
                raise ValueError("credit flow control needs BROADCAST "
                                 "(parameter replies act as acks)")

    @property
    def queue_discipline(self) -> str:
        return "priority" if self.prioritized else "fifo"

    def plan(self, model: ModelSpec, n_servers: int,
             rng: np.random.Generator,
             spec: PlacementSpec = PlacementSpec(), n_workers: int = 0,
             measured_loads: Optional[Mapping[int, int]] = None) -> KeyTable:
        """Materialize the synchronization keys and their server placement.

        The priority policy draws from ``rng`` before the planner does.
        """
        priorities = make_priorities(model, self.priority_policy, rng)
        return plan_keys([layer.params for layer in model.layers], n_servers,
                         slice_params=self.slice_params, rng=rng,
                         priorities=priorities, spec=spec,
                         n_workers=n_workers, measured_loads=measured_loads)

    def with_slice(self, slice_params: Optional[int]) -> "StrategyConfig":
        """Copy with a different slice size (Figure 12 sweeps)."""
        return replace(self, slice_params=slice_params)


# ----------------------------------------------------------------------
# The strategies evaluated in the paper
# ----------------------------------------------------------------------
def baseline() -> StrategyConfig:
    """MXNet KVStore (Section 4.1): layer-granularity aggressive sync,
    FIFO everywhere, notify-then-pull."""
    return StrategyConfig("baseline", None, False, PullPolicy.NOTIFY_PULL)


def slicing_only(slice_params: int = DEFAULT_SLICE_PARAMS) -> StrategyConfig:
    """P3 without priorities: fixed-size slices, FIFO, immediate broadcast
    (the "Slicing" series of Figure 7)."""
    return StrategyConfig("slicing", slice_params, False, PullPolicy.BROADCAST)


def p3(slice_params: int = DEFAULT_SLICE_PARAMS) -> StrategyConfig:
    """Full P3: slicing + priority queues + immediate broadcast."""
    return StrategyConfig("p3", slice_params, True, PullPolicy.BROADCAST)


def tensorflow_style() -> StrategyConfig:
    """TensorFlow's PS-on-the-graph behaviour (Section 2): aggressive
    pushes, but pulls deferred to the next iteration's graph execution."""
    return StrategyConfig("tensorflow", None, False, PullPolicy.DEFERRED_PULL)


def poseidon_wfbp() -> StrategyConfig:
    """Poseidon's wait-free backpropagation (Zhang et al., 2017): push
    each layer the moment its gradients exist — operationally MXNet's
    aggressive layer-wise sync, which is how the paper characterizes both
    (Appendix B.1 shows the same bursty traffic)."""
    return StrategyConfig("poseidon", None, False, PullPolicy.NOTIFY_PULL)


def asgd() -> StrategyConfig:
    """Asynchronous SGD (Appendix B.2): server updates per push; each
    worker blocks only on its own parameters."""
    return StrategyConfig("asgd", None, False, PullPolicy.NOTIFY_PULL,
                          async_updates=True)


# ----------------------------------------------------------------------
# Ablations (DESIGN.md Section 6)
# ----------------------------------------------------------------------
def priority_only() -> StrategyConfig:
    """Priority scheduling at layer granularity, no slicing."""
    return StrategyConfig("priority_only", None, True, PullPolicy.BROADCAST)


def p3_with_policy(policy: str,
                   slice_params: int = DEFAULT_SLICE_PARAMS) -> StrategyConfig:
    """P3 with an alternative priority policy (reverse/random/uniform/...)."""
    return StrategyConfig(f"p3_{policy}", slice_params, True, PullPolicy.BROADCAST,
                          priority_policy=policy)


def credit_p3(credit_slices: int = 4,
              slice_params: int = DEFAULT_SLICE_PARAMS) -> StrategyConfig:
    """P3 plus credit-based flow control, as ByteScheduler (SOSP'19)
    later proposed: a worker keeps at most ``credit_slices`` pushed
    slices unacknowledged, bounding the backlog that can build up ahead
    of urgent slices in shared queues (server RX, oversubscribed core)
    at the cost of keeping the pipe from going idle when credit is too
    small."""
    return StrategyConfig("credit_p3", slice_params, True, PullPolicy.BROADCAST,
                          credit_slices=credit_slices)


def p3_with_compression(density: float = 0.01,
                        slice_params: int = DEFAULT_SLICE_PARAMS) -> StrategyConfig:
    """P3 stacked on gradient compression — the paper's Section 6 note
    that P3 'is an orthogonal approach to the compression techniques and
    can be used on top of compression mechanisms to further improve
    performance'.  Timing model only; accuracy implications are DGC's
    (see :mod:`repro.training.dgc`)."""
    if not (0.0 < density <= 0.5):
        raise ValueError("density must be in (0, 0.5]")
    scale = min(1.0, 2.0 * density)
    return StrategyConfig("p3_compressed", slice_params, True,
                          PullPolicy.BROADCAST,
                          gradient_scale=scale, param_scale=scale)


def dgc_timing(density: float = 0.001) -> StrategyConfig:
    """Timing model of Deep Gradient Compression: pushes carry
    ``2 * density`` of the gradient bytes (values + indices); parameter
    traffic shrinks likewise because only touched coordinates move.
    Accuracy effects are modelled in :mod:`repro.training.dgc`."""
    if not (0.0 < density <= 0.5):
        raise ValueError("density must be in (0, 0.5]")
    scale = min(1.0, 2.0 * density)
    return StrategyConfig("dgc", None, False, PullPolicy.NOTIFY_PULL,
                          gradient_scale=scale, param_scale=scale)


STRATEGY_FACTORIES = {
    "baseline": baseline,
    "slicing": slicing_only,
    "p3": p3,
    "tensorflow": tensorflow_style,
    "poseidon": poseidon_wfbp,
    "asgd": asgd,
    "priority_only": priority_only,
    "dgc": dgc_timing,
    "p3_compressed": p3_with_compression,
    "credit_p3": credit_p3,
}


def get_strategy(name: str) -> StrategyConfig:
    try:
        return STRATEGY_FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; "
                       f"available: {sorted(STRATEGY_FACTORIES)}") from None
