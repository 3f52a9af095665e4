"""Convergence comparison (the paper's Figures 11 and 15): real training
with exact synchronization (what P3 computes), Deep Gradient Compression
and asynchronous SGD.

P3 never changes gradient *values* — only their transmission schedule —
so its training curve is identical to synchronous SGD.  DGC sparsifies
and ASGD introduces staleness; both trade accuracy for speed.

Run:  python examples/convergence_comparison.py [epochs]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.claims import CLAIMS
from repro.training import (
    DGCConfig,
    TrainConfig,
    make_dataset,
    small_cnn,
    train_data_parallel,
)


def main(epochs: int = 12) -> None:
    dataset = make_dataset(n_train=2048, n_val=512, seed=0)
    print(f"dataset: {dataset.n_train} train / {dataset.n_val} val "
          f"synthetic images (CIFAR-10 stand-in)\n")

    runs = {}
    for method, extras in (
        ("exact", {}),
        ("dgc", {"dgc_config": DGCConfig(density=0.01)}),
        ("asgd", {}),
    ):
        rng = np.random.default_rng(2)
        network = small_cnn(rng)
        config = TrainConfig(n_workers=4, epochs=epochs, batch_size=64,
                             lr=0.05, seed=3)
        label = "p3 (exact sync)" if method == "exact" else method
        print(f"training with {label} ...")
        runs[label] = train_data_parallel(network, dataset, config,
                                          method=method, **extras)

    print(f"\n{'epoch':>6}", *[f"{k:>16}" for k in runs])
    for e in range(epochs):
        row = [f"{e + 1:>6}"]
        for res in runs.values():
            row.append(f"{res.val_accuracy[e]:>16.3f}")
        print(*row)

    print("\nfinal accuracy:")
    for label, res in runs.items():
        print(f"  {label:16s} {res.final_accuracy:.3f}")
    print("\nExpect: exact sync (= P3) highest, DGC slightly below, ASGD "
          "lowest.  The paper:")
    for key in ("fig11_dgc_costs_accuracy", "fig15_p3_converges_higher"):
        print(f"  {CLAIMS[key].where}: {CLAIMS[key].says}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
