"""Network-utilization traces (the paper's Figures 8 and 9): compare the
baseline's bursty traffic against P3's smooth, overlapped usage.

Run:  python examples/network_utilization.py [model]
      python examples/network_utilization.py sockeye
"""

from __future__ import annotations

import sys

from repro.analysis import FIG8_9_CONFIGS, ascii_plot, utilization_trace
from repro.strategies import baseline, p3


def main(model_name: str = "sockeye") -> None:
    bandwidth = FIG8_9_CONFIGS.get(model_name, 4.0)
    for strategy in (baseline(), p3()):
        fig = utilization_trace(model_name, strategy, bandwidth,
                                figure_id=f"util_{strategy.name}")
        print(ascii_plot(fig, height=14))
        print(f"  outbound: peak {fig.notes['outbound_peak_gbps']:.2f} Gbps, "
              f"mean {fig.notes['outbound_mean_gbps']:.2f} Gbps, "
              f"idle {fig.notes['outbound_idle_frac'] * 100:.0f}% of bins")
        print(f"  iteration time: {fig.notes['iteration_time_s'] * 1000:.0f} ms")
        print()
    print("Expect: baseline shows tall bursts separated by idle valleys; "
          "P3 shows flatter, denser usage in both directions "
          "(Figures 8 vs 9 of the paper).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "sockeye")
