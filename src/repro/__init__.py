"""repro — reproduction of *Priority-based Parameter Propagation for
Distributed DNN Training* (P3; Jayarajan et al., MLSys 2019).

Public API overview
-------------------
``repro.models``
    Analytic layer-level descriptors of the paper's workloads
    (ResNet-50, VGG-19, InceptionV3, Sockeye, ...).
``repro.strategies``
    Parameter-synchronization mechanisms: the MXNet KVStore baseline,
    slicing-only, full P3, TensorFlow-style deferred pull, Poseidon
    WFBP, ASGD, and ablation variants.
``repro.sim`` / :func:`repro.simulate`
    Discrete-event cluster simulator substituting for the paper's
    multi-GPU testbed.
``repro.training``
    Pure-numpy data-parallel training substrate for the convergence
    experiments (P3 exact sync vs. DGC vs. ASGD).
``repro.live``
    Live transport: the same functional data plane over real TCP
    sockets and OS processes, with priority scheduling and token-bucket
    bandwidth shaping (the software ``tc qdisc``).
``repro.analysis``
    One entry per paper figure, regenerating its data series (the
    throughput figures are rows of one ``Sweep``).

Quickstart
----------
>>> from repro import ClusterConfig, models, simulate, strategies
>>> cfg = ClusterConfig(n_workers=4, bandwidth_gbps=4.0)
>>> base = simulate(models.resnet50(), strategies.baseline(), cfg)
>>> p3 = simulate(models.resnet50(), strategies.p3(), cfg)
>>> p3.throughput > base.throughput
True
"""

from . import allreduce, analysis, core, kvstore, live, models, sim, strategies, training
from .sim import ClusterConfig, RunResult, simulate

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig",
    "RunResult",
    "__version__",
    "analysis",
    "core",
    "kvstore",
    "live",
    "models",
    "sim",
    "simulate",
    "strategies",
    "training",
]
