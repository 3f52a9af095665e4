"""Model zoo: analytic layer-level descriptors of the paper's workloads."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from .alexnet import alexnet
from .base import BYTES_PER_PARAM, LayerSpec, ModelSpec, make_layers
from .inception import inceptionv3
from .resnet import resnet50, resnet110_cifar
from .sockeye import sockeye
from .toy import fig4_model, fig6_model, toy_model
from .transformer import transformer_lm
from .vgg import vgg19

_REGISTRY: Dict[str, Callable[[], ModelSpec]] = {
    "alexnet": alexnet,
    "resnet50": resnet50,
    "inceptionv3": inceptionv3,
    "vgg19": vgg19,
    "sockeye": sockeye,
    "resnet110_cifar": resnet110_cifar,
    "toy3": toy_model,
    "toy_fig4": fig4_model,
    "toy_fig6": fig6_model,
    "transformer_lm": transformer_lm,
    "transformer_lm_tied": partial(transformer_lm, tied_head=True),
}


def get_model(name: str) -> ModelSpec:
    """Look up a model by registry name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_models() -> List[str]:
    return sorted(_REGISTRY)


__all__ = [
    "BYTES_PER_PARAM",
    "alexnet",
    "LayerSpec",
    "ModelSpec",
    "make_layers",
    "available_models",
    "fig4_model",
    "fig6_model",
    "get_model",
    "inceptionv3",
    "resnet50",
    "resnet110_cifar",
    "sockeye",
    "toy_model",
    "transformer_lm",
    "vgg19",
]
