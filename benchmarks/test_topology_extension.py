"""Extension benchmark: where does P3's priority scheduling stop
helping?

Two deployments the paper does not evaluate:

1. **Oversubscribed core**: all cross traffic shares a FIFO switch
   fabric.  Once the core — which cannot honour end-host priorities —
   is the bottleneck, P3 degrades to baseline; the paper's gains assume
   the edge NIC is where queueing happens (true for its testbed).
2. **Compression stacked on P3** (Section 6's orthogonality note): at
   1 Gbps, 1%-density compression on top of P3 recovers the compute
   bound that neither achieves alone."""

from __future__ import annotations

from repro.analysis import oversubscription_sweep
from repro.models import vgg19
from repro.sim import ClusterConfig, simulate
from repro.strategies import baseline, p3, p3_with_compression

from conftest import run_once


def test_oversubscribed_core(benchmark, report):
    fig = run_once(benchmark, lambda: oversubscription_sweep(
        "resnet50", values=(1.0, 2.0, 4.0), bandwidth_gbps=8.0))
    report(fig)
    print(f"P3 speedup: edge-bottleneck "
          f"{fig.notes['speedup_at_edge_bottleneck']:.2f}x -> core-bottleneck "
          f"{fig.notes['speedup_at_core_bottleneck']:.2f}x")
    # When the FIFO core binds, priority scheduling cannot help.
    assert fig.notes["speedup_at_core_bottleneck"] < 1.10
    assert fig.get("baseline").y[-1] < fig.get("baseline").y[0]


def test_compression_on_top_of_p3(benchmark):
    cfg = ClusterConfig(n_workers=4, bandwidth_gbps=1.0)
    model = vgg19()

    def run():
        out = {}
        for strat in (baseline(), p3(), p3_with_compression(0.01)):
            out[strat.name] = simulate(model, strat, cfg,
                                       iterations=4, warmup=1).throughput / 4
        return out

    out = run_once(benchmark, run)
    print()
    for name, tput in out.items():
        print(f"  {name:15s} {tput:6.1f} images/s/worker")
    # Compression composes with P3 and dwarfs scheduling alone at 1 Gbps.
    assert out["p3_compressed"] > 5.0 * out["p3"]
    assert out["p3"] > out["baseline"]
