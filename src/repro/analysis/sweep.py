"""One sweep, many figures.

Every throughput figure of the paper's Section 5 — and every ablation
built beside them — is the same experiment: a few strategies × one
swept quantity → throughput.  :class:`Sweep` states that experiment
once; a figure is one instance of it, i.e. one row of data: what is
swept and how a value lands on a ``ClusterConfig``/``StrategyConfig``
(its *axis*), the default grid (per model where the paper has panels),
the strategies, the cluster the paper ran it on, the labels, per-worker
or cluster-total throughput, and a function that derives the figure's
``notes``.

Calling the instance builds the ``SimPoint`` grid (strategy-major),
executes it through :func:`repro.analysis.runner.run_grid` and arranges
the results as a :class:`~repro.analysis.series.FigureData` — so every
figure takes the same run parameters (``iterations``, ``warmup``,
``seed``, ``jobs``, ``cache``) from the one declaration below, and
``jobs``/``cache`` parallelize and memoize any of them without changing
a digit of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..models import get_model
from ..sim import ClusterConfig
from ..strategies import StrategyConfig, baseline, p3
from .cache import SimCache
from .runner import SimPoint, run_grid
from .series import FigureData

#: An axis places one swept value: ``axis(value, strategy, config)``
#: returns the ``(strategy, ClusterConfig keyword dict)`` of that point.
Axis = Callable[[Any, StrategyConfig, Dict[str, Any]],
                Tuple[StrategyConfig, Dict[str, Any]]]


def config_axis(name: str, cast: Callable[[Any], Any] = float) -> Axis:
    """The common axis: each value is written to one ``ClusterConfig`` field."""
    return lambda value, strategy, config: (strategy,
                                            {**config, name: cast(value)})


def baseline_and_p3() -> Sequence[StrategyConfig]:
    """The default series: the paper's two contenders."""
    return (baseline(), p3())


@dataclass(frozen=True)
class Sweep:
    """A throughput figure as data; call it to run the figure."""

    figure_id: str
    #: ``str.format`` template over ``model`` and the config keywords.
    title: str
    x_label: str
    axis: Axis
    grid: Sequence[float]
    #: One paragraph on why the figure is configured as it is.
    doc: str = ""
    model: str = "resnet50"
    strategies: Callable[[], Sequence[StrategyConfig]] = baseline_and_p3
    #: ``ClusterConfig`` keywords that differ from the testbed defaults.
    base: Mapping[str, Any] = field(default_factory=dict)
    #: Per-model refinements where the paper has one panel per model:
    #: figure ids (others get ``<figure_id>_<model>``), grids and config.
    panels: Mapping[str, str] = field(default_factory=dict)
    model_grids: Mapping[str, Sequence[float]] = field(default_factory=dict)
    model_base: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    per_worker: bool = True
    notes: Optional[Callable[[FigureData], None]] = None
    iterations: int = 5
    warmup: int = 2

    def __call__(
        self,
        model_name: Optional[str] = None,
        values: Optional[Sequence[float]] = None,
        *,
        strategies: Optional[Sequence[StrategyConfig]] = None,
        iterations: Optional[int] = None,
        warmup: Optional[int] = None,
        seed: int = 0,
        jobs: int = 1,
        cache: Optional[SimCache] = None,
        **config: Any,
    ) -> FigureData:
        """Throughput of each strategy at each axis value, for one model.

        ``values`` overrides the default grid, ``strategies`` the default
        series; ``**config`` are ``ClusterConfig`` keywords laid over the
        figure's own (``n_workers=2``, ``bandwidth_gbps=4.0``, ...).
        """
        model_name = model_name or self.model
        model = get_model(model_name)
        values = list(self.model_grids.get(model_name, self.grid)
                      if values is None else values)
        if strategies is None:
            strategies = self.strategies()
        if iterations is None:
            iterations = self.iterations
        if warmup is None:
            warmup = self.warmup
        base = {**self.base, **self.model_base.get(model_name, {}),
                "seed": seed, **config}
        points = []
        for strategy in strategies:
            for value in values:
                placed, cfg = self.axis(value, strategy, base)
                points.append(SimPoint(model_name, placed,
                                       ClusterConfig(**cfg),
                                       iterations, warmup))
        results = run_grid(points, jobs=jobs, cache=cache)
        ys = [result.throughput
              / (point.config.n_workers if self.per_worker else 1)
              for point, result in zip(points, results)]

        fig = FigureData(
            figure_id=(self.panels.get(model_name,
                                       f"{self.figure_id}_{model_name}")
                       if self.panels else self.figure_id),
            title=self.title.format(model=model_name, **base),
            x_label=self.x_label,
            y_label=(f"throughput ({model.sample_unit}/s"
                     + (" per worker)" if self.per_worker else ")")),
        )
        for i, strategy in enumerate(strategies):
            fig.add(strategy.name, values,
                    ys[i * len(values):(i + 1) * len(values)])
        if self.notes is not None:
            self.notes(fig)
        return fig
