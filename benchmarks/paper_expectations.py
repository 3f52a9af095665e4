"""Qualitative expectations extracted from the paper, used by the
benchmarks to check the *shape* of each regenerated figure (who wins,
by roughly what factor, where crossovers fall).  Absolute values are not
expected to match: the substrate is a simulator, not the authors'
P4000/InfiniBand testbed (see DESIGN.md)."""

# Abstract / Section 5.3: maximum P3-over-baseline speedups — the one
# copy lives beside the Figure 7 grids; benchmarks import it from here.
from repro.analysis.bandwidth import PAPER_PEAK_SPEEDUP  # noqa: F401

# Section 5.3: where the baseline starts degrading (Gbps).
PAPER_BASELINE_CROSSOVER_GBPS = {"resnet50": 6.0}
PAPER_P3_CROSSOVER_GBPS = {"resnet50": 4.0}

# Section 5.7: optimal slice size (parameters).
PAPER_BEST_SLICE = 50_000

# Section 5.6: average DGC final-accuracy drop vs P3.
PAPER_DGC_ACCURACY_DROP = 0.004

# Appendix B.2: final accuracies and time-to-80% ratio.
PAPER_ASGD_FINAL = 0.88
PAPER_P3_FINAL = 0.93
PAPER_ASGD_TIME_TO_80_RATIO = 6.0

# Section 5.5: P3's VGG-19 peak scalability gain (8 machines).
PAPER_VGG_SCALABILITY_GAIN = 1.61
PAPER_SOCKEYE_SCALABILITY_GAIN = 1.18
