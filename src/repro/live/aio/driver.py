"""Asyncio cluster driver: one event loop hosting the whole run.

:func:`run_live_aio` is the event-loop counterpart of
:func:`repro.live.driver.run_live`: instead of forking one OS process
per role it instantiates every shard, aggregator, and worker as
coroutine-hosted :class:`~repro.live.aio.node.Node`\\ s on a single
loop, wired over real localhost TCP with the unchanged v2 wire
protocol.  That is what makes 64-worker runs practical on one machine —
and what makes **elastic membership** possible at all: the blocking
driver's process topology is fixed at launch, while here workers simply
appear (dial + JOIN) and disappear (LEAVE + BYE) between epochs.

The :class:`EpochCoordinator` is the driver-side half of the membership
handshake: shards *seal* an epoch once their tracker says every barrier
token arrived and every earlier round is applied; the last shard to
seal migrates re-placed keys (value, momentum, round version) between
shards, then all shards install the epoch's plan and greenlight their
workers with ``EPOCH`` acks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...obs.events import normalize_timestamps
from ..config import LiveClusterConfig
from ..driver import (LiveRunError, LiveRunResult, _fault_events,
                      agreed_params)
from ..membership import MembershipSchedule, epoch_plans
from .aggregator import AioAggregator
from .server import AioServerShard
from .worker import AioWorker

#: Grace added to the run deadline for connection setup and teardown.
LAUNCH_MARGIN_S = 30.0


class EpochCoordinator:
    """Barrier + key-migration point shared by every shard.

    ``seal(sid, epoch)`` blocks until *all* shards sealed the epoch; the
    last arriver migrates every key whose shard assignment changes
    between the consecutive epoch plans.  Because each shard only seals
    after its barrier tokens certified that all prior-epoch traffic was
    processed, migration happens on quiescent shards — no frame
    referencing a migrating key can be in flight.
    """

    def __init__(self, plans, schedule: MembershipSchedule) -> None:
        self.plans = plans
        self.schedule = schedule
        self.servers: List[AioServerShard] = []  # set by the driver
        self._sealed: Dict[int, Set[int]] = {}
        self._events: Dict[int, asyncio.Event] = {}
        #: Audit log of key moves: (epoch, key, from_shard, to_shard).
        self.migrations: List[Tuple[int, int, int, int]] = []

    async def seal(self, sid: int, epoch: int) -> None:
        sealed = self._sealed.setdefault(epoch, set())
        event = self._events.setdefault(epoch, asyncio.Event())
        sealed.add(sid)
        if len(sealed) == len(self.servers):
            self._migrate(epoch)
            event.set()
        await event.wait()

    def _migrate(self, epoch: int) -> None:
        if epoch == 0:
            return
        old, new = self.plans[epoch - 1], self.plans[epoch]
        for m_old, m_new in zip(old.metas, new.metas):
            if m_old.server == m_new.server:
                continue
            value, velocity, version = \
                self.servers[m_old.server].export_live_key(m_old.key)
            self.servers[m_new.server].adopt_live_key(
                m_new.key, value, velocity, version)
            self.migrations.append(
                (epoch, m_old.key, m_old.server, m_new.server))


def run_live_aio(cfg: LiveClusterConfig,
                 strategy: Optional[str] = None,
                 shaper=None) -> LiveRunResult:
    """Run one full live training job on a single event loop.

    ``shaper`` (any reserve/refund object, e.g. a
    :class:`repro.tenancy.TenantShare`) replaces every node's private
    :class:`TokenBucket` so the whole job draws from one shared
    allocation — the rack-level fair-sharing model of
    :func:`repro.tenancy.run_live_tenants`.
    """
    return asyncio.run(_run_cluster(cfg, strategy, shaper=shaper))


async def _run_cluster(cfg: LiveClusterConfig,
                       strategy: Optional[str],
                       shaper=None) -> LiveRunResult:
    strategy = strategy or cfg.strategy
    epoch0 = time.monotonic()
    sched = cfg.membership or MembershipSchedule.static(cfg.n_workers,
                                                        cfg.iterations)
    plans = epoch_plans(cfg, strategy)
    if cfg.membership is not None:
        # The store's shard layout must match the epoch-0 plan; values
        # are placement-invariant, so this is layout only.
        policy0 = cfg.membership.epochs[0].placement or cfg.placement
        store_cfg = dc_replace(cfg, membership=None, placement=policy0,
                               batch_size=cfg.n_workers)
    else:
        store_cfg = cfg
    store = store_cfg.build_initialized_store(strategy)
    coordinator = EpochCoordinator(plans, sched)
    servers = [AioServerShard(s, cfg, store.shards[s], plans, sched,
                              coordinator, strategy=strategy, epoch0=epoch0,
                              shaper=shaper)
               for s in range(cfg.n_servers)]
    coordinator.servers = servers
    aggregators: List[AioAggregator] = []
    agg_tasks: List[asyncio.Task] = []
    workers: Dict[int, AioWorker] = {}
    failed = False
    try:
        addresses = [(cfg.host, await srv.start()) for srv in servers]
        if cfg.two_tier:
            aggregators = [AioAggregator(g, cfg, strategy, epoch0,
                                         shaper=shaper)
                           for g in range(cfg.n_groups)]
            agg_ports = [await agg.start(addresses) for agg in aggregators]
            worker_addresses = {
                w: [(cfg.host, agg_ports[cfg.group_of(w)])]
                for w in sched.all_workers}
            agg_tasks = [asyncio.get_running_loop().create_task(agg.run())
                         for agg in aggregators]
        else:
            worker_addresses = {w: addresses for w in sched.all_workers}
        workers = {w: AioWorker(w, cfg, plans, sched, strategy, epoch0,
                                shaper=shaper)
                   for w in sched.all_workers}

        async def _drive(w: int) -> dict:
            final = await workers[w].run(worker_addresses[w])
            return workers[w].result(final)

        deadline = cfg.round_timeout_s * cfg.iterations + LAUNCH_MARGIN_S
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(*(_drive(w) for w in sched.all_workers),
                               return_exceptions=True),
                deadline)
        except asyncio.TimeoutError:
            failed = True
            raise LiveRunError(
                f"aio run: event loop did not complete within "
                f"{deadline:.1f}s") from None
        results: Dict[int, dict] = {}
        errors: Dict[int, str] = {}
        for w, outcome in zip(sched.all_workers, outcomes):
            if isinstance(outcome, BaseException):
                errors[w] = f"{type(outcome).__name__}: {outcome}"
            else:
                results[outcome["worker"]] = outcome
        if errors:
            failed = True
            raise LiveRunError(f"worker failures: {errors}")
        if agg_tasks:
            # Aggregators exit once all their members said BYE.
            for gid, task in enumerate(agg_tasks):
                try:
                    await asyncio.wait_for(task, LAUNCH_MARGIN_S)
                except asyncio.TimeoutError:
                    failed = True
                    raise LiveRunError(
                        f"aggregator {gid} never finished") from None
                except Exception as exc:
                    failed = True
                    raise LiveRunError(
                        f"aggregator {gid} failed: {exc}") from exc
        run_end = time.monotonic()
        for srv in servers:
            await srv.stop()
        shard_errors = [srv.error for srv in servers
                        if srv.error is not None]
        if shard_errors:
            failed = True
            raise LiveRunError(f"shard failures: {shard_errors}")
    finally:
        if failed:
            for node in list(workers.values()) + aggregators + servers:
                node.abort()
            for task in agg_tasks:
                task.cancel()

    events: List[dict] = []
    if cfg.observe:
        for r in results.values():
            events.extend(r.get("events", []))
        events.extend(_fault_events(cfg, epoch0, run_end - epoch0))
        for srv in servers:
            if srv.recorder is not None:
                events.extend(srv.recorder.to_dicts())
        if events:
            # Rebase events AND chunk timelines onto the same zero so a
            # merged trace export lines them up.
            t0 = min(float(e["ts"]) for e in events)
            events = normalize_timestamps(events)
            events.sort(key=lambda e: (e["ts"], e["node"], e["kind"]))
            for r in results.values():
                r["timeline"] = [
                    dc_replace(c, start=c.start - t0, end=c.end - t0)
                    for c in r["timeline"]]

    # Replicas can only be compared within the final epoch's membership:
    # a worker that left mid-run froze at its last active round.
    final = agreed_params({w: r["params"] for w, r in results.items()},
                          sched.active(sched.n_epochs - 1))
    return LiveRunResult(
        strategy=strategy,
        config=cfg,
        final_params=final,
        iteration_times={w: np.asarray(r["iteration_times"])
                         for w, r in results.items()},
        timelines={w: list(r["timeline"]) for w, r in results.items()},
        heartbeat_acks={w: int(r["heartbeat_acks"])
                        for w, r in results.items()},
        transport_stats={w: dict(r.get("transport", {}))
                         for w, r in results.items()},
        events=events,
    )
