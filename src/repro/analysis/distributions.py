"""Figure 5: per-layer parameter distributions of the workload models."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..models import get_model
from .series import FigureData

_FIG5_MODELS = ("resnet50", "vgg19", "sockeye")


def fig5_param_distribution(models: Sequence[str] = _FIG5_MODELS) -> FigureData:
    """Parameter count per layer index (in millions), one series per model."""
    fig = FigureData(
        figure_id="fig5",
        title="Parameter distribution per layer",
        x_label="layer index",
        y_label="parameters (millions)",
    )
    for name in models:
        model = get_model(name)
        counts = model.param_counts() / 1e6
        fig.add(name, np.arange(1, model.n_layers + 1), counts)
        fig.notes[f"{name}_total_Mparams"] = round(model.total_params / 1e6, 2)
        fig.notes[f"{name}_heaviest_index"] = model.heaviest_layer + 1
        fig.notes[f"{name}_heaviest_share"] = round(
            model.param_fraction(model.heaviest_layer), 3)
    return fig

