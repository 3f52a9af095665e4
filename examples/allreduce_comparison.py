"""P3's principles on ring allreduce (extension of the paper's Section 6
generality claim).

Compares the framework-default 25 MB fused FIFO bucketing (Horovod /
PyTorch DDP style) against priority launch order with sliced buckets
(ByteScheduler style), and sweeps the slice size — the allreduce
analogue of the paper's Figure 12.

Run:  python examples/allreduce_comparison.py [model]
"""

from __future__ import annotations

import sys

from repro.analysis import allreduce_sweep


def main(model_name: str = "vgg19") -> None:
    fig = allreduce_sweep(model_name, (0.2e6, 1e6, 4e6, 16e6, 64e6),
                          iterations=6, warmup=2)
    print(fig.summary())
    print("\nThe fused-bucket disciplines do not slice, so their columns are "
          "flat.  Note the useful granularity is much coarser than the "
          "parameter server's 50k params (0.2 MB): a ring collective pays "
          "its fixed overhead 2(W-1) times per op, so sub-MB slices hurt "
          "and the benefit saturates above a few MB.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "vgg19")
