"""Quickstart: simulate distributed training of ResNet-50 with and
without P3 on a bandwidth-constrained 4-machine cluster.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ClusterConfig, simulate
from repro.analysis.claims import CLAIMS
from repro.models import resnet50
from repro.strategies import baseline, p3, slicing_only


def main() -> None:
    model = resnet50()
    print(model.describe())
    print()

    # The paper's testbed: 4 machines, each hosting a worker and a
    # parameter-server shard, throttled to 4 Gbps (Section 5.3).
    cluster = ClusterConfig(n_workers=4, bandwidth_gbps=4.0)

    results = {}
    for strategy in (baseline(), slicing_only(), p3()):
        result = simulate(model, strategy, cluster, iterations=6, warmup=2)
        results[strategy.name] = result
        print(f"{strategy.name:10s}: {result.throughput / 4:6.1f} images/s per worker "
              f"(iteration {result.mean_iteration_time * 1000:.0f} ms)")

    speedup = results["p3"].speedup_over(results["baseline"])
    print(f"\nP3 speedup over the MXNet-style baseline at 4 Gbps: "
          f"{(speedup - 1) * 100:.0f}%  (the paper reports up to "
          f"{(CLAIMS['fig7a_resnet50_peak_speedup'].paper - 1) * 100:.0f}% for ResNet-50)")


if __name__ == "__main__":
    main()
