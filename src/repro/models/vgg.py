"""VGG-19 descriptor (Simonyan & Zisserman, 2014).

The key property for P3: a single fully-connected array (fc6
weight, 25088 x 4096 = 102.8 M parameters) holds 71.5% of the model —
the disproportionately heavy layer that dominates baseline communication
(Figure 5b / Section 3).
"""

from __future__ import annotations

from typing import List, Tuple

from .base import LayerSpec, ModelSpec, conv_flops, conv_params, dense_flops

# Channel plan of VGG-19; "M" = 2x2 max-pool.
_VGG19_CFG = [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"]


def vgg19(batch_size: int = 32, samples_per_sec: float = 55.0) -> ModelSpec:
    """Build the VGG-19 descriptor.

    ``samples_per_sec`` defaults to the compute-bound per-worker rate
    read off the paper's Figure 7(c) high-bandwidth plateau (~55 im/s).
    """
    layers: List[LayerSpec] = []
    cin, hw = 3, 224
    conv_idx = 0
    for item in _VGG19_CFG:
        if item == "M":
            hw //= 2
            continue
        cout = int(item)
        conv_idx += 1
        flops = conv_flops(3, cin, cout, hw, hw)
        layers.append(LayerSpec(f"conv{conv_idx}_weight", conv_params(3, cin, cout), flops))
        layers.append(LayerSpec(f"conv{conv_idx}_bias", cout, 0.0))
        cin = cout
    fc_dims: Tuple[Tuple[int, int], ...] = ((cin * hw * hw, 4096), (4096, 4096), (4096, 1000))
    for i, (fin, fout) in enumerate(fc_dims, start=1):
        layers.append(LayerSpec(f"fc{i}_weight", fin * fout, dense_flops(fin, fout)))
        layers.append(LayerSpec(f"fc{i}_bias", fout, 0.0))
    return ModelSpec(
        name="vgg19",
        layers=tuple(layers),
        batch_size=batch_size,
        samples_per_sec=samples_per_sec,
        sample_unit="images",
    )
