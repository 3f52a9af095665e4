"""Background tenant traffic for shared-cluster experiments.

Section 5.3 argues P3 "is more suitable than baseline on a shared
network cluster where effective bandwidth available for a single
training process is much lower than the maximum capacity".  This module
injects competing flows: each machine's NIC periodically transmits and
receives opaque bursts belonging to other tenants, occupying the channel
exactly like training traffic (and, on prioritized channels, competing
at a configurable priority).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .network import Message, MsgKind, Role

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterSim

# Background bursts carry a late-layer-ish priority so P3's scheduler
# treats them like bulk traffic, not like urgent layer-0 slices.
_NOISE_PRIORITY = 10**6


class BackgroundTraffic:
    """Periodic bursts on every NIC direction of every machine.

    ``load`` is the long-run fraction of each channel's capacity the
    background consumes; bursts of ``burst_bytes`` are spaced so that
    ``burst_bytes / period == load * rate``.
    """

    def __init__(self, ctx: "ClusterSim", load: float, burst_bytes: int) -> None:
        if not (0.0 <= load < 1.0):
            raise ValueError("background load must be in [0, 1)")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        self.ctx = ctx
        self.load = load
        self.burst_bytes = burst_bytes
        rate = ctx.tx_channels[0].rate
        if rate is None:
            raise ValueError("background traffic needs a finite link rate")
        self.period = burst_bytes / (rate * load) if load > 0 else float("inf")
        self.bursts_injected = 0

    def release(self) -> None:
        """Drop ``ctx`` once the run is over (:meth:`ClusterSim.release`)."""
        self.ctx = None

    def start(self) -> None:
        if self.load <= 0:
            return
        for machine in range(self.ctx.n_machines):
            # Stagger machines so bursts do not synchronize artificially.
            offset = self.period * (machine + 1) / (self.ctx.n_machines + 1)
            self.ctx.sim.schedule(offset, self._burst, machine)

    def _burst(self, machine: int) -> None:
        if self.ctx.all_workers_done:
            return  # let the simulation drain and terminate
        noise = Message(
            kind=MsgKind.NOISE, key=-1, payload_bytes=self.burst_bytes,
            priority=_NOISE_PRIORITY, src=machine, dst=machine,
            dst_role=Role.WORKER,
        )
        self.ctx.tx_channels[machine].enqueue(noise)
        rx_noise = Message(
            kind=MsgKind.NOISE, key=-1, payload_bytes=self.burst_bytes,
            priority=_NOISE_PRIORITY, src=machine, dst=machine,
            dst_role=Role.WORKER,
        )
        self.ctx.rx_channels[machine].enqueue(rx_noise)
        self.bursts_injected += 1
        self.ctx.sim.schedule(self.period, self._burst, machine)
