"""Live cluster demo: run the SAME training job three ways and compare.

1. In-process ``DistributedStore`` loop (ground truth).
2. ``repro.live`` — worker and server-shard nodes on one event loop,
   talking over real localhost TCP through a priority-scheduled,
   rate-shaped transport, once with FIFO scheduling (baseline) and once
   with P3 priorities.
3. ``repro.sim`` — the discrete-event simulator's prediction for the
   same workload and bandwidth.

Prints the bit-identity check and the live-vs-simulated speedup.

Run:  python examples/live_cluster.py   (or: make live-demo)
"""

from __future__ import annotations

from repro.analysis.calibration import calibrate
from repro.live import LiveClusterConfig


def demo_config() -> LiveClusterConfig:
    """2 workers + 2 shards, a small MLP, and a 20 Mbit/s shaped link —
    slow enough that communication dominates and scheduling matters."""
    return LiveClusterConfig(
        n_workers=2,
        n_servers=2,
        iterations=5,
        warmup=1,
        in_size=16,
        hidden=32,
        depth=2,
        slice_params=5_000,
        rate_bytes_per_s=2_500_000.0,  # 20 Mbit/s
        heartbeat_interval_s=0.05,
    )


def main() -> None:
    cfg = demo_config()
    print(f"Launching live cluster: {cfg.n_workers} workers + "
          f"{cfg.n_servers} server shards over localhost TCP "
          f"({cfg.rate_bytes_per_s * 8 / 1e6:.0f} Mbit/s shaped)...")
    report = calibrate(cfg)
    print()
    print(report.summary())
    print()
    verdict = "agree" if report.agrees() else "DISAGREE"
    print(f"Live speedup {report.live_speedup:.2f}x vs simulated "
          f"{report.sim_speedup:.2f}x — predictions {verdict}.")


if __name__ == "__main__":
    main()
