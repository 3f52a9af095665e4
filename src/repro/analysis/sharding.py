"""Placement sweep: P3 vs baseline under skewed key sizes, by policy.

The paper's round-robin slice placement (Section 4.2) balances shard
load only when slices are uniform.  Coarse slicing — or the baseline's
layer-granularity keys — leaves heavily *skewed* key sizes (VGG-19's
fc layers dwarf its convolutions by orders of magnitude), and the shard
that drew the hot key becomes the round's straggler.  This figure runs
the same model/strategy grid under each :mod:`repro.placement` policy:

* ``round_robin`` — the strategies' own static plan (the paper);
* ``balanced`` — greedy bin-packing over measured key sizes, splitting
  hot keys across shards;
* ``two_tier`` — balanced placement plus intra-group aggregators, so
  root fan-in grows with the number of *groups* instead of workers.

Scaling the worker count 16→256 separates the failure modes: skew hurts
at every size, while root fan-in only dominates at large clusters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..models import get_model
from ..sim import ClusterConfig, simulate
from ..strategies import StrategyConfig, baseline, p3
from .runner import SimPoint, run_grid
from .series import FigureData

PLACEMENT_SIZES = (16, 64, 256)
PLACEMENTS = ("round_robin", "balanced", "two_tier")
#: Coarse slices keep P3's key sizes skewed (VGG-19's fc6 still splits
#: into multi-million-parameter slices while conv keys stay tiny), which
#: is exactly the regime a placement policy must cope with.
SKEWED_SLICE_PARAMS = 2_000_000


def skewed_strategies() -> tuple:
    """The figure's default strategy pair: layer-granular baseline and
    coarsely-sliced P3 — both with heavily skewed key sizes."""
    return (baseline(), p3(slice_params=SKEWED_SLICE_PARAMS))


def profile_key_loads(
    model_name: str,
    strategy: StrategyConfig,
    n_servers: int = 8,
    n_workers: int = 4,
    bandwidth_gbps: float = 10.0,
    compute_scale: float = 1.0,
    iterations: int = 3,
    warmup: int = 1,
    seed: int = 0,
) -> Tuple[Tuple[int, int], ...]:
    """Measured per-key gradient bytes from a short profiling run.

    Runs a small round-robin cluster with an observability session
    attached and folds the shared event stream with
    :func:`repro.placement.loads.key_loads_from_events`.  The key
    universe is the strategy's slicing of the model, which does not
    depend on the cluster size, so loads measured on a 4-worker run
    drive placement for any sweep size.  Returns the
    ``ClusterConfig.measured_key_loads`` tuple, key-sorted.
    """
    from ..obs.registry import sim_session
    from ..placement.loads import key_loads_from_events

    obs = sim_session()
    simulate(
        get_model(model_name), strategy,
        # Colocated deployments need at least one worker per shard.
        ClusterConfig(n_workers=max(n_workers, n_servers),
                      n_servers=n_servers,
                      bandwidth_gbps=bandwidth_gbps,
                      compute_scale=compute_scale, seed=seed),
        iterations=iterations, warmup=warmup, obs=obs,
    )
    loads = key_loads_from_events(obs.events())
    return tuple(sorted(loads.items()))


def placement_sweep(
    model_name: str = "vgg19",
    cluster_sizes: Sequence[int] = PLACEMENT_SIZES,
    placements: Sequence[str] = PLACEMENTS,
    strategies: Optional[Sequence[StrategyConfig]] = None,
    n_servers: int = 8,
    bandwidth_gbps: float = 10.0,
    agg_group_size: int = 8,
    split_factor: float = 1.5,
    compute_scale: float = 1.0,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    measured: bool = False,
    **grid,
) -> FigureData:
    """Cluster-total throughput per placement policy and strategy.

    One series per ``(strategy, placement)`` pair, named
    ``"<strategy>/<placement>"`` — two series dimensions, which is why
    this figure arranges its own grid instead of being a
    :class:`~repro.analysis.sweep.Sweep` row.  ``**grid`` (``jobs``,
    ``cache``) goes to :func:`repro.analysis.runner.run_grid`, which
    parallelizes and memoizes without changing a digit of the output.

    ``measured=True`` drives the non-round-robin policies with
    *observed* per-key gradient bytes instead of static parameter
    counts: one short profiling run per strategy
    (:func:`profile_key_loads`) feeds ``measured_key_loads`` into every
    grid point, closing the obs → placement loop end to end.
    """
    model = get_model(model_name)
    strategies = (tuple(strategies) if strategies is not None
                  else skewed_strategies())
    fig = FigureData(
        figure_id=(f"placement_{model_name}_measured" if measured
                   else f"placement_{model_name}"),
        title=(f"Placement policies: {model_name} @ "
               f"{bandwidth_gbps:g} Gbps, {n_servers} shards"
               + (" (measured demands)" if measured else "")),
        x_label="cluster size",
        y_label=f"throughput ({model.sample_unit}/s)",
    )
    key_loads = {
        strat.name: (profile_key_loads(
            model_name, strat, n_servers=n_servers,
            bandwidth_gbps=bandwidth_gbps, compute_scale=compute_scale,
            seed=seed) if measured else None)
        for strat in strategies
    }
    points = [
        SimPoint(model_name, strat,
                 ClusterConfig(n_workers=int(n), n_servers=n_servers,
                               bandwidth_gbps=bandwidth_gbps,
                               compute_scale=compute_scale,
                               placement=placement,
                               placement_split_factor=split_factor,
                               agg_group_size=agg_group_size, seed=seed,
                               measured_key_loads=key_loads[strat.name]),
                 iterations, warmup)
        for strat in strategies
        for placement in placements
        for n in cluster_sizes
    ]
    results = iter(run_grid(points, **grid))
    for strat in strategies:
        for placement in placements:
            ys = [next(results).throughput for _ in cluster_sizes]
            fig.add(f"{strat.name}/{placement}", list(cluster_sizes), ys)
    for strat in strategies:
        base = fig.get(f"{strat.name}/round_robin")
        for placement in placements:
            if placement == "round_robin":
                continue
            series = fig.get(f"{strat.name}/{placement}")
            gains = series.y / base.y
            fig.notes[f"max_{placement}_gain_{strat.name}"] = round(
                float(gains.max()), 3)
            fig.notes[f"max_{placement}_gain_{strat.name}_at_size"] = int(
                base.x[gains.argmax()])
    return fig
