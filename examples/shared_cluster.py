"""Shared-cluster scenario: how do the baseline and P3 behave when other
tenants consume part of the network? (Extension of Section 5.3's
observation that P3 suits shared clusters.)

Also demonstrates straggler injection: synchronous SGD runs at the
slowest worker's pace; ASGD does not — the trade-off behind the paper's
Appendix B.2.

Run:  python examples/shared_cluster.py
"""

from __future__ import annotations

from repro.analysis import shared_cluster_sweep, straggler_sensitivity
from repro.strategies import asgd, p3


def main() -> None:
    print("== background tenant traffic (ResNet-50 @ 6 Gbps, 4 workers) ==")
    fig = shared_cluster_sweep("resnet50")
    print(fig.table())
    print(f"P3 speedup: {fig.notes['speedup_unloaded']:.2f}x unloaded, "
          f"{fig.notes['speedup_loaded']:.2f}x at 60% background load")

    # Any sweep takes its own axis values and strategies.
    print("\n== one straggling worker (ResNet-50 @ 10 Gbps, 4 workers) ==")
    fig = straggler_sensitivity("resnet50", values=(1.0, 1.5, 2.0),
                                strategies=(p3(), asgd()))
    print(fig.table())

    print("\nTakeaways: P3's relative advantage survives contention "
          "(it needs less peak bandwidth); ASGD shrugs off stragglers "
          "but pays in accuracy (see examples/convergence_comparison.py).")


if __name__ == "__main__":
    main()
