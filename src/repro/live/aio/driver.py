"""Asyncio cluster driver: one event loop hosting the whole run.

:func:`run_live_aio` is the live counterpart of
:func:`repro.sim.simulate`: it instantiates every shard, aggregator,
and worker as coroutine-hosted :class:`~repro.live.aio.node.Node`\\ s
on a single loop, wired over real localhost TCP with the v2 wire
protocol, waits with hard deadlines (no hung test suites), and returns
a :class:`~repro.live.result.LiveRunResult`.  One loop is what makes
64-worker runs practical on one machine.  The cluster is static: every
worker dials its shards (or its group's aggregator), pushes every round,
gathers the last one and says ``BYE``.

A node that fails hangs up on its peers, so the first failure surfaces
within a round trip; the driver then aborts every node, awaits the end
of every task, and raises a :class:`~repro.live.result.LiveRunError`
naming the nodes that failed.  A run that *succeeds* is held to the
same standard: :func:`run_live_aio` refuses to return while any task it
started is still pending.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace as dc_replace
from typing import Awaitable, List, Optional, TypeVar

import numpy as np

from ..config import LiveClusterConfig
from ..result import (LiveRunError, LiveRunResult, _fault_events,
                      agreed_params, merge_event_rows)
from .aggregator import AioAggregator
from .node import Node
from .server import AioServerShard
from .worker import AioWorker

#: Grace added to the run deadline for connection setup and teardown.
LAUNCH_MARGIN_S = 30.0

T = TypeVar("T")


def run_live_aio(cfg: LiveClusterConfig,
                 strategy: Optional[str] = None,
                 shaper=None) -> LiveRunResult:
    """Run one full live training job on a single event loop.

    ``shaper`` (any object with ``reserve``, e.g. a
    :class:`repro.tenancy.TenantShare`) replaces every node's private
    :class:`TokenBucket` so the whole job draws from one shared
    allocation — the rack-level fair-sharing model of
    :func:`repro.tenancy.run_live_tenants`.
    """
    cfg = dc_replace(cfg, strategy=strategy or cfg.strategy)
    return run_leaving_no_task(_run_cluster(cfg, shaper=shaper))


def run_leaving_no_task(job: Awaitable[T]) -> T:
    """``asyncio.run(leaving_no_task(job))``, minus the result riding the
    main task: on its way out ``asyncio.run`` restores the SIGINT handler
    it wrapped around that task, and ``signal`` formats the handler —
    task, result and all (megabytes of ``ChunkRecord`` text) — into an
    enum-lookup error it then discards."""
    out: List[T] = []

    async def main() -> None:
        out.append(await leaving_no_task(job))

    asyncio.run(main())
    return out[0]


async def leaving_no_task(job: Awaitable[T]) -> T:
    """Await ``job`` as the loop's only business; let nothing outlive it.

    The loop holds tasks weakly: a drain or read task whose connection
    was dropped rather than closed is garbage-collected mid-wait
    (``Task was destroyed but it is pending!``) — or keeps retransmitting
    into the next run's measurements.  Only the loop's owner can tell
    such a task from a sibling job's, so the check lives here and not in
    :func:`_run_cluster`, which tenancy runs several of per loop.
    """
    result = await job
    me = asyncio.current_task()
    leaked = sorted(task.get_name() for task in asyncio.all_tasks()
                    if task is not me and not task.done())
    if leaked:
        raise LiveRunError(
            f"live run finished with {len(leaked)} task(s) still "
            f"pending: {', '.join(leaked)}")
    return result


async def _run_cluster(cfg: LiveClusterConfig,
                       shaper=None) -> LiveRunResult:
    epoch0 = time.monotonic()
    # Planned once, here; every node is handed the table.
    plan = cfg.key_plan()
    store = cfg.build_store(plan)
    servers = [AioServerShard(s, cfg, store.shards[s], plan, epoch0=epoch0,
                              shaper=shaper)
               for s in range(cfg.n_servers)]
    nodes: List[Node] = list(servers)
    #: Every aggregator's and worker's run(), named after its node.
    running: List[asyncio.Task] = []
    loop = asyncio.get_running_loop()

    def shard_errors() -> List[str]:
        return [f"shard {srv.sid}: {srv.error}" for srv in servers
                if srv.error is not None]

    try:
        addresses = [(cfg.host, await srv.start()) for srv in servers]
        if cfg.two_tier:
            aggregators = [AioAggregator(g, cfg, plan, epoch0,
                                         shaper=shaper)
                           for g in range(cfg.n_groups)]
            nodes += aggregators
            agg_ports = [await agg.start(addresses) for agg in aggregators]
            worker_addresses = [[(cfg.host, agg_ports[cfg.group_of(w)])]
                                for w in range(cfg.n_workers)]
            # Aggregators exit once all their members said BYE.
            running += [loop.create_task(agg.run(), name=agg.name)
                        for agg in aggregators]
        else:
            worker_addresses = [addresses] * cfg.n_workers
        workers = [AioWorker(w, cfg, plan, epoch0, shaper=shaper)
                   for w in range(cfg.n_workers)]
        nodes += workers

        async def _drive(worker: AioWorker, peers) -> dict:
            return worker.result(await worker.run(peers))

        worker_tasks = [loop.create_task(_drive(worker, peers),
                                         name=worker.name)
                        for worker, peers in zip(workers, worker_addresses)]
        running += worker_tasks
        deadline = cfg.round_timeout_s * cfg.iterations + LAUNCH_MARGIN_S
        # The first node to fail ends the run: its peers would otherwise
        # sit out their round timeouts waiting for a round that cannot
        # complete.
        done, pending = await asyncio.wait(
            running, timeout=deadline, return_when=asyncio.FIRST_EXCEPTION)
        # A dead shard is the cause of its clients' errors: name it first.
        # A node whose task is still tearing down is named by its record.
        failures = shard_errors()
        records = {node.name: node.error for node in nodes}
        for task in running:
            name = task.get_name()
            if task in done:
                outcome, = await asyncio.gather(task, return_exceptions=True)
                if isinstance(outcome, BaseException):
                    failures.append(
                        f"{name}: {type(outcome).__name__}: {outcome}")
            elif records[name] is not None:
                failures.append(f"{name}: {records[name]}")
        if failures:
            raise LiveRunError(f"node failures: {failures}")
        if pending:
            raise LiveRunError(
                f"live run: {sorted(t.get_name() for t in pending)} did "
                f"not complete within {deadline:.1f}s")
        results = {w: task.result() for w, task in enumerate(worker_tasks)}
        run_end = time.monotonic()
        for srv in servers:
            await srv.shutdown(cfg.peer_timeout_s)
        failures = shard_errors()
        if failures:
            raise LiveRunError(f"node failures: {failures}")
    except BaseException:
        for node in nodes:
            node.abort()
        for task in running:
            task.cancel()
        await asyncio.gather(*running,
                             *(node.wait_closed() for node in nodes),
                             return_exceptions=True)
        raise

    streams: List[List[tuple]] = []
    if cfg.observe:
        streams += [r["event_rows"] for r in results.values()]
        streams.append(_fault_events(cfg, epoch0, run_end - epoch0))
        streams += [srv.recorder.log().rows for srv in servers
                    if srv.recorder is not None]
    events, t0 = merge_event_rows(streams)
    if t0 is not None:
        # Rebase the chunk timelines onto the events' zero so a merged
        # trace export lines them up.
        for r in results.values():
            r["timeline"] = [c._replace(start=c.start - t0, end=c.end - t0)
                             for c in r["timeline"]]

    final = agreed_params({w: r["params"] for w, r in results.items()},
                          range(cfg.n_workers))
    result = LiveRunResult(
        strategy=cfg.strategy,
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
    # Every task of every node has ended: cut the nodes' cycles so the
    # run's graph (senders, records, connections) is freed by reference
    # counting, not by a full collection that may come much later.
    for node in nodes:
        node.release()
    return result
