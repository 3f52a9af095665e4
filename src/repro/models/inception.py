"""InceptionV3 descriptor (Szegedy et al., 2015).

Like ResNet-50, InceptionV3 consists of many small convolutions, so
parameter slicing alone does not help and all of P3's benefit comes from
priority scheduling (Figure 7(b) of the paper).
"""

from __future__ import annotations

from typing import List

from .base import LayerSpec, ModelSpec, dense_flops


def _conv_bn(layers: List[LayerSpec], name: str, kh: int, kw: int,
             cin: int, cout: int, h: int, w: int) -> None:
    params = kh * kw * cin * cout
    flops = 2.0 * kh * kw * cin * cout * h * w
    layers.append(LayerSpec(f"{name}_weight", params, flops))
    layers.append(LayerSpec(f"{name}_bn_gamma", cout, 0.0))
    layers.append(LayerSpec(f"{name}_bn_beta", cout, 0.0))


def _inception_a(layers: List[LayerSpec], name: str, cin: int, pool_features: int,
                 hw: int = 35) -> int:
    _conv_bn(layers, f"{name}_b1x1", 1, 1, cin, 64, hw, hw)
    _conv_bn(layers, f"{name}_b5x5_1", 1, 1, cin, 48, hw, hw)
    _conv_bn(layers, f"{name}_b5x5_2", 5, 5, 48, 64, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_1", 1, 1, cin, 64, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_2", 3, 3, 64, 96, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_3", 3, 3, 96, 96, hw, hw)
    _conv_bn(layers, f"{name}_bpool", 1, 1, cin, pool_features, hw, hw)
    return 64 + 64 + 96 + pool_features


def _inception_b(layers: List[LayerSpec], name: str, cin: int) -> int:
    # 35x35 -> 17x17 grid reduction
    _conv_bn(layers, f"{name}_b3x3", 3, 3, cin, 384, 17, 17)
    _conv_bn(layers, f"{name}_b3x3dbl_1", 1, 1, cin, 64, 35, 35)
    _conv_bn(layers, f"{name}_b3x3dbl_2", 3, 3, 64, 96, 35, 35)
    _conv_bn(layers, f"{name}_b3x3dbl_3", 3, 3, 96, 96, 17, 17)
    return 384 + 96 + cin


def _inception_c(layers: List[LayerSpec], name: str, cin: int, c7: int, hw: int = 17) -> int:
    _conv_bn(layers, f"{name}_b1x1", 1, 1, cin, 192, hw, hw)
    _conv_bn(layers, f"{name}_b7x7_1", 1, 1, cin, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7_2", 1, 7, c7, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7_3", 7, 1, c7, 192, hw, hw)
    _conv_bn(layers, f"{name}_b7x7dbl_1", 1, 1, cin, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7dbl_2", 7, 1, c7, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7dbl_3", 1, 7, c7, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7dbl_4", 7, 1, c7, c7, hw, hw)
    _conv_bn(layers, f"{name}_b7x7dbl_5", 1, 7, c7, 192, hw, hw)
    _conv_bn(layers, f"{name}_bpool", 1, 1, cin, 192, hw, hw)
    return 192 * 4


def _inception_d(layers: List[LayerSpec], name: str, cin: int) -> int:
    # 17x17 -> 8x8 grid reduction
    _conv_bn(layers, f"{name}_b3x3_1", 1, 1, cin, 192, 17, 17)
    _conv_bn(layers, f"{name}_b3x3_2", 3, 3, 192, 320, 8, 8)
    _conv_bn(layers, f"{name}_b7x7x3_1", 1, 1, cin, 192, 17, 17)
    _conv_bn(layers, f"{name}_b7x7x3_2", 1, 7, 192, 192, 17, 17)
    _conv_bn(layers, f"{name}_b7x7x3_3", 7, 1, 192, 192, 17, 17)
    _conv_bn(layers, f"{name}_b7x7x3_4", 3, 3, 192, 192, 8, 8)
    return 320 + 192 + cin


def _inception_e(layers: List[LayerSpec], name: str, cin: int, hw: int = 8) -> int:
    _conv_bn(layers, f"{name}_b1x1", 1, 1, cin, 320, hw, hw)
    _conv_bn(layers, f"{name}_b3x3_1", 1, 1, cin, 384, hw, hw)
    _conv_bn(layers, f"{name}_b3x3_2a", 1, 3, 384, 384, hw, hw)
    _conv_bn(layers, f"{name}_b3x3_2b", 3, 1, 384, 384, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_1", 1, 1, cin, 448, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_2", 3, 3, 448, 384, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_3a", 1, 3, 384, 384, hw, hw)
    _conv_bn(layers, f"{name}_b3x3dbl_3b", 3, 1, 384, 384, hw, hw)
    _conv_bn(layers, f"{name}_bpool", 1, 1, cin, 192, hw, hw)
    return 320 + 768 + 768 + 192


def inceptionv3(batch_size: int = 32, samples_per_sec: float = 72.0) -> ModelSpec:
    """Build the InceptionV3 descriptor (~23.8 M parameters)."""
    layers: List[LayerSpec] = []
    _conv_bn(layers, "stem_conv1", 3, 3, 3, 32, 149, 149)
    _conv_bn(layers, "stem_conv2", 3, 3, 32, 32, 147, 147)
    _conv_bn(layers, "stem_conv3", 3, 3, 32, 64, 147, 147)
    _conv_bn(layers, "stem_conv4", 1, 1, 64, 80, 73, 73)
    _conv_bn(layers, "stem_conv5", 3, 3, 80, 192, 71, 71)

    cin = 192
    for i, pf in enumerate((32, 64, 64)):
        cin = _inception_a(layers, f"mixedA{i}", cin, pf)
    cin = _inception_b(layers, "mixedB0", cin)
    for i, c7 in enumerate((128, 160, 160, 192)):
        cin = _inception_c(layers, f"mixedC{i}", cin, c7)
    cin = _inception_d(layers, "mixedD0", cin)
    for i in range(2):
        cin = _inception_e(layers, f"mixedE{i}", cin)

    layers.append(LayerSpec("fc_weight", cin * 1000, dense_flops(cin, 1000)))
    layers.append(LayerSpec("fc_bias", 1000, 0.0))
    return ModelSpec(
        name="inceptionv3",
        layers=tuple(layers),
        batch_size=batch_size,
        samples_per_sec=samples_per_sec,
        sample_unit="images",
    )
