"""Bandwidth-sensitivity study (the paper's Figure 7) for any model.

Sweeps interface bandwidth and plots throughput for Baseline, Slicing
and P3 directly in the terminal.

Run:  python examples/bandwidth_sensitivity.py [model]
      python examples/bandwidth_sensitivity.py vgg19
"""

from __future__ import annotations

import sys

from repro.analysis import PAPER_PEAK_SPEEDUP, ascii_plot, fig7_bandwidth_sweep
from repro.analysis.series import speedup


def main(model_name: str = "vgg19") -> None:
    print(f"sweeping bandwidth for {model_name} (this runs ~20 simulations)...")
    fig = fig7_bandwidth_sweep(model_name, iterations=5)

    print()
    print(ascii_plot(fig))
    print()
    print(fig.table())

    ratios = speedup(fig, over="baseline", of="p3")
    best_idx = ratios.y.argmax()
    print(f"\nP3 peak speedup: {ratios.y[best_idx]:.2f}x at "
          f"{ratios.x[best_idx]:g} Gbps")
    print("Paper peaks: " + ", ".join(
        f"{name} {peak:.2f}x" for name, peak in PAPER_PEAK_SPEEDUP.items()))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "vgg19")
