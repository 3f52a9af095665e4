"""Figure 12: throughput vs parameter-slice size.

Paper: throughput rises as slices shrink, peaks around 50,000 params,
then collapses when per-packet overheads dominate."""

from __future__ import annotations

import pytest

from repro.analysis import fig12_slice_size_sweep

from conftest import run_once
from paper_expectations import PAPER_BEST_SLICE

# VGG-19 at 1k-param slices needs ~10^7 events; start it at 3k.
GRIDS = {
    "resnet50": (1_000, 3_000, 10_000, 50_000, 200_000, 1_000_000),
    "vgg19": (3_000, 10_000, 50_000, 200_000, 1_000_000),
    "sockeye": (1_000, 3_000, 10_000, 50_000, 200_000, 1_000_000),
}


@pytest.mark.parametrize("model_name", sorted(GRIDS))
def test_fig12_slice_size(benchmark, report, model_name):
    fig = run_once(benchmark, lambda: fig12_slice_size_sweep(
        model_name, values=GRIDS[model_name], iterations=4))
    report(fig)
    s = fig.get("p3")
    best = fig.notes["best_slice_size"]
    print(f"paper: optimum ~{PAPER_BEST_SLICE} params | measured optimum "
          f"{best} ({fig.notes['best_throughput']:.1f}/s)")
    # Interior optimum: the best size beats both the smallest and largest.
    assert s.y_at(best) >= s.y[0]
    assert s.y_at(best) >= s.y[-1]
    # Tiny slices are clearly harmful (per-message overhead dominates).
    assert s.y[0] < 0.9 * s.y_at(best)
    # The optimum is within an order of magnitude of the paper's 50k.
    assert 5_000 <= best <= 500_000
