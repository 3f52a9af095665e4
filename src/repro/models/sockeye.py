"""Sockeye neural machine translation descriptor (Hieber et al., 2017).

An LSTM encoder-decoder sized for the IWSLT15 benchmark the paper runs.
The property that matters (Figure 5c and Section 5.3): the *heaviest*
parameter array is the source embedding, i.e. the very first layer in
forward order.  Under the baseline it is generated last in backprop yet
needed first next iteration — the worst case for aggressive layer-order
synchronization and the reason Sockeye gains 38% under P3.
"""

from __future__ import annotations

from typing import List

from .base import LayerSpec, ModelSpec

_SEQ_LEN = 30  # average IWSLT15 sentence length used for FLOP estimates


def _lstm(layers: List[LayerSpec], name: str, input_dim: int, hidden: int) -> None:
    """One LSTM cell: input weights, recurrent weights, bias (4 gates)."""
    gates = 4 * hidden
    for suffix, params in (
        ("W", gates * input_dim),
        ("U", gates * hidden),
        ("b", gates),
    ):
        flops = 2.0 * params * _SEQ_LEN
        layers.append(LayerSpec(f"{name}_{suffix}", params, flops))


def sockeye(batch_size: int = 64, samples_per_sec: float = 190.0,
            src_vocab: int = 33000, tgt_vocab: int = 26000,
            embed: int = 256, hidden: int = 512) -> ModelSpec:
    """Build the Sockeye seq2seq descriptor (~8.4 M-parameter first layer)."""
    layers: List[LayerSpec] = []
    # Source embedding: the heaviest array, at forward index 0.
    layers.append(LayerSpec("src_embed", src_vocab * embed, 2.0 * embed * _SEQ_LEN))
    # Encoder: bidirectional LSTM followed by two unidirectional layers.
    _lstm(layers, "enc_birnn_fwd", embed, hidden)
    _lstm(layers, "enc_birnn_rev", embed, hidden)
    _lstm(layers, "enc_l2", 2 * hidden, hidden)
    _lstm(layers, "enc_l3", hidden, hidden)
    # Target embedding feeds the decoder.
    layers.append(LayerSpec("tgt_embed", tgt_vocab * embed, 2.0 * embed * _SEQ_LEN))
    # Decoder state initialization from final encoder state.
    layers.append(LayerSpec("dec_init_w", hidden * hidden, 2.0 * hidden * hidden))
    layers.append(LayerSpec("dec_init_b", hidden, 0.0))
    # Decoder: two LSTM layers with input feeding (embed + context).
    _lstm(layers, "dec_l1", embed + hidden, hidden)
    _lstm(layers, "dec_l2", hidden, hidden)
    # MLP attention.
    layers.append(LayerSpec("att_w_query", hidden * hidden, 2.0 * hidden * hidden * _SEQ_LEN))
    layers.append(LayerSpec("att_w_keys", hidden * hidden, 2.0 * hidden * hidden * _SEQ_LEN))
    layers.append(LayerSpec("att_v", hidden, 2.0 * hidden * _SEQ_LEN))
    # Output: hidden projection to the embedding dimension, then logits.
    layers.append(LayerSpec("out_proj_w", hidden * embed, 2.0 * hidden * embed * _SEQ_LEN))
    layers.append(LayerSpec("out_proj_b", embed, 0.0))
    layers.append(LayerSpec("out_logits_w", embed * tgt_vocab,
                            2.0 * embed * tgt_vocab * _SEQ_LEN))
    layers.append(LayerSpec("out_logits_b", tgt_vocab, 0.0))
    return ModelSpec(
        name="sockeye",
        layers=tuple(layers),
        batch_size=batch_size,
        samples_per_sec=samples_per_sec,
        sample_unit="sentences",
        jitter_sigma=0.10,  # variable sequence lengths (Section 5.5 of the paper)
    )
