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

import importlib

__version__ = "0.1.0"

#: Every public name -> the subpackage that defines it (a subpackage
#: maps to itself).  Nothing is imported until first use (PEP 562), so
#: ``import repro.sim`` costs only what ``repro.sim`` itself imports.
_EXPORTS = {
    "ClusterConfig": "sim",
    "RunResult": "sim",
    "simulate": "sim",
    **{name: name for name in ("allreduce", "analysis", "core", "kvstore",
                               "live", "models", "sim", "strategies",
                               "training")},
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
