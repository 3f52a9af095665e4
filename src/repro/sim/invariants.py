"""Runtime invariant monitoring for the cluster simulator.

The fault-injection layer (:mod:`repro.sim.faults`) reshapes *timing*
only; it must never lose or duplicate a byte, re-order the clock, or
let a worker compute on parameters whose synchronization has not
finished.  :class:`InvariantMonitor` attaches to a built
:class:`~repro.sim.cluster.ClusterSim` **before** :meth:`run` and
checks, live and at end of run:

* **clock monotonicity** — the event clock never goes backwards;
* **byte conservation** — every protocol message sent through the
  transport is delivered exactly once, with the same payload, and every
  transmission a channel starts it also completes;
* **exactly-once updates** — every gradient push delivered to a PS
  shard is applied in exactly one aggregation/update job, and under
  two-tier every member push delivered to a group aggregator is
  consumed by exactly one combine job;
* **forward gating** — a forward layer never starts before all of its
  parameter keys arrived for the current round, and no round ever
  receives more parameter messages than it has keys.

These are the reusable checkers behind ``tests/sim/test_invariants.py``
(the property harness runs them across strategies, with and without
fault plans); :func:`simulate_checked` is the one-call convenience
wrapper.

Monitoring works by wrapping bound methods with counting/asserting
closures, so the production simulator carries no bookkeeping overhead
when no monitor is attached.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .cluster import ClusterConfig, ClusterSim, RunResult
from .network import Message, MsgKind

if TYPE_CHECKING:  # pragma: no cover
    from ..models.base import ModelSpec
    from ..strategies.base import StrategyConfig


class InvariantViolation(AssertionError):
    """A simulator invariant was broken (lost bytes, time travel, ...)."""


class InvariantMonitor:
    """Attach invariant checks to a :class:`ClusterSim` before running.

    Usage::

        cluster = ClusterSim(model, strategy, config)
        monitor = InvariantMonitor(cluster)
        result = cluster.run(iterations=5)
        monitor.assert_all_final()

    Live checks (clock, forward gating, duplicate deliveries) raise
    :class:`InvariantViolation` the moment they fail;
    :meth:`assert_all_final` verifies the end-of-run conservation
    ledgers balance.  The wrappers are instance attributes that close
    over the monitor and the part they wrap; :meth:`release` deletes
    them once the run has been asserted.
    """

    def __init__(self, cluster: ClusterSim, wrap_clock: bool = True) -> None:
        self.cluster = cluster
        # (part, attribute) of every wrapper installed, for release().
        self._installed: List[Tuple[object, str]] = []
        # Ledgers: (src, dst, kind) -> [messages, payload_bytes]
        self.sent: Dict[Tuple[int, int, str], list] = defaultdict(lambda: [0, 0])
        self.delivered: Dict[Tuple[int, int, str], list] = defaultdict(lambda: [0, 0])
        # (machine, direction) -> wire bytes whose transmission completed
        self.channel_completed: Dict[Tuple[int, str], int] = defaultdict(int)
        # (node, key) -> gradient pushes delivered to that shard or
        # group aggregator / contributions consumed by its update or
        # combine jobs
        self.pushes_delivered: Dict[Tuple[str, int], int] = defaultdict(int)
        self.contribs_consumed: Dict[Tuple[str, int], int] = defaultdict(int)
        self.events_seen = 0
        # On a shared engine (repro.tenancy) the multi-job monitor wraps
        # the clock exactly once and fans events_seen out to each job
        # monitor; wrapping per job would nest N step() closures.
        if wrap_clock:
            self._wrap_clock()
        self._wrap_transport()
        self._wrap_channels()
        for server in cluster.servers + cluster.aggregators:
            self._wrap_server(server)
        for worker in cluster.workers:
            self._wrap_worker(worker)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Delete the installed wrappers and drop the cluster.

        Each wrapper closes over the monitor and the part it is set on,
        so a monitored run would otherwise outlive its owner in
        reference cycles.  Call it once the run has been asserted; the
        ledgers and :meth:`summary` stay readable.  Idempotent.
        """
        _uninstall(self._installed)
        self.cluster = None

    def _wrap_clock(self) -> None:
        sim = self.cluster.sim
        orig_step = sim.step
        last = [sim.now]

        def step() -> bool:
            ran = orig_step()
            if sim.now < last[0]:
                raise InvariantViolation(
                    f"clock went backwards: {last[0]} -> {sim.now}")
            last[0] = sim.now
            if ran:
                self.events_seen += 1
            return ran

        _install(self._installed, sim, "step", step)

    def _wrap_transport(self) -> None:
        transport = self.cluster.transport
        orig_send = transport.send

        def send(msg: Message) -> None:
            self.sent[(msg.src, msg.dst, msg.kind.value)][0] += 1
            self.sent[(msg.src, msg.dst, msg.kind.value)][1] += msg.payload_bytes
            orig_send(msg)

        _install(self._installed, transport, "send", send)

        # Every delivery — remote RX completion or loopback — terminates
        # in the per-machine endpoint registered with the transport, so
        # the delivered ledger wraps those.  An RX completion *is* its
        # machine's endpoint, set at register time, so re-register to
        # install the counting wrappers (must precede ``_wrap_channels``,
        # which wraps ``on_complete`` last).
        for machine in list(transport._deliver):
            endpoint = transport._deliver[machine]

            def deliver(msg: Message, _endpoint=endpoint) -> None:
                if msg.kind is not MsgKind.NOISE:
                    self.delivered[(msg.src, msg.dst, msg.kind.value)][0] += 1
                    self.delivered[(msg.src, msg.dst, msg.kind.value)][1] += msg.payload_bytes
                _endpoint(msg)

            transport.register(machine, transport._tx[machine],
                               transport._rx[machine], deliver)

    def _wrap_channels(self) -> None:
        for ch in self.cluster.tx_channels + self.cluster.rx_channels:
            orig = ch.on_complete

            def on_complete(msg: Message, _ch=ch, _orig=orig) -> None:
                wire = msg.payload_bytes + _ch.overhead_bytes
                self.channel_completed[(_ch.machine, _ch.direction)] += wire
                _orig(msg)

            ch.on_complete = on_complete

    def _wrap_server(self, server) -> None:
        """Conservation at one push-counting node — a shard, or a group
        aggregator (a shard towards its members): every push delivered
        to it is consumed by exactly one job."""
        node = server.name
        orig_on_push = server._on_push
        orig_pop = server._queue_pop

        def on_push(msg: Message) -> None:
            self.pushes_delivered[(node, msg.key)] += 1
            orig_on_push(msg)

        def queue_pop():
            key, recipients, n_contribs = orig_pop()
            self.contribs_consumed[(node, key)] += n_contribs
            return key, recipients, n_contribs

        _install(self._installed, server, "_on_push", on_push)
        _install(self._installed, server, "_queue_pop", queue_pop)

    def _wrap_worker(self, worker) -> None:
        """Forward gating, checked against an *independent* ledger.

        The monitor counts actual PARAM deliveries per layer round
        (reset when the worker pushes that layer's gradients, which is
        what opens a new round) rather than trusting the worker's own
        ``params_arrived`` bookkeeping — a buggy gate that opens early
        trips the check even if the worker's counters claim otherwise.
        """
        cluster = self.cluster
        # The first forward pass consumes the initial broadcast, which
        # the simulator treats as already complete.
        arrived = [int(n) for n in worker.keys_per_layer]
        orig_try = worker._try_forward_layer
        orig_on_param = worker._on_param
        orig_push_layer = worker._push_layer

        def try_forward_layer() -> None:
            orig_try()
            if worker.done or worker.waiting_forward:
                return
            layer = worker.fwd_layer
            if arrived[layer] < worker.keys_per_layer[layer]:
                raise InvariantViolation(
                    f"worker {worker.wid} started forward layer {layer} with "
                    f"only {arrived[layer]}/{int(worker.keys_per_layer[layer])} "
                    "parameter keys actually delivered this round")

        def on_param(msg: Message) -> None:
            layer = cluster.keys[msg.key].layer_index
            arrived[layer] += 1
            if arrived[layer] > worker.keys_per_layer[layer]:
                raise InvariantViolation(
                    f"worker {worker.wid} received {arrived[layer]} parameter "
                    f"messages for layer {layer} which has only "
                    f"{int(worker.keys_per_layer[layer])} keys "
                    "(duplicate delivery)")
            orig_on_param(msg)

        def push_layer(layer: int) -> None:
            arrived[layer] = 0  # pushing the gradients opens a new round
            orig_push_layer(layer)

        _install(self._installed, worker, "_try_forward_layer",
                 try_forward_layer)
        _install(self._installed, worker, "_on_param", on_param)
        _install(self._installed, worker, "_push_layer", push_layer)

    # ------------------------------------------------------------------
    # Final checks
    # ------------------------------------------------------------------
    def assert_message_conservation(self) -> None:
        """Every sent protocol message was delivered exactly once, with
        identical payload bytes — per (src, dst, kind) flow."""
        flows = set(self.sent) | set(self.delivered)
        for flow in sorted(flows):
            s_count, s_bytes = self.sent.get(flow, [0, 0])
            d_count, d_bytes = self.delivered.get(flow, [0, 0])
            if (s_count, s_bytes) != (d_count, d_bytes):
                src, dst, kind = flow
                raise InvariantViolation(
                    f"flow {src}->{dst} [{kind}]: sent {s_count} msgs/{s_bytes} B "
                    f"but delivered {d_count} msgs/{d_bytes} B")

    def assert_channels_drained(self) -> None:
        """Every transmission a channel started also completed, and no
        channel ends the run busy or with queued messages."""
        for ch in self.cluster.tx_channels + self.cluster.rx_channels:
            done = self.channel_completed[(ch.machine, ch.direction)]
            if done != ch.bytes_transferred:
                raise InvariantViolation(
                    f"channel {ch.machine}/{ch.direction}: started "
                    f"{ch.bytes_transferred} wire bytes but completed {done}")
            if ch.busy or len(ch.queue) > 0:
                raise InvariantViolation(
                    f"channel {ch.machine}/{ch.direction} did not drain "
                    f"(busy={ch.busy}, queued={len(ch.queue)})")

    def assert_updates_exactly_once(self) -> None:
        """Every gradient push delivered to a shard was consumed by
        exactly one update job, every member push delivered to a group
        aggregator by exactly one combine job, and none of those nodes
        holds unfinished work."""
        for server in self.cluster.servers + self.cluster.aggregators:
            if server.busy or server._queue_len() > 0:
                raise InvariantViolation(
                    f"{server.name} did not drain (busy={server.busy}, "
                    f"queued jobs={server._queue_len()})")
        pairs = set(self.pushes_delivered) | set(self.contribs_consumed)
        for node, key in sorted(pairs):
            pushed = self.pushes_delivered[(node, key)]
            consumed = self.contribs_consumed[(node, key)]
            if pushed != consumed:
                raise InvariantViolation(
                    f"{node}, key {key}: {pushed} gradient pushes delivered "
                    f"but {consumed} consumed — every push must enter "
                    "exactly one job")

    def assert_clock_advanced(self) -> None:
        if self.events_seen == 0 or self.cluster.sim.now <= 0.0:
            raise InvariantViolation("simulation processed no events")

    def assert_all_final(self) -> None:
        """Run every end-of-run invariant check."""
        self.assert_clock_advanced()
        self.assert_message_conservation()
        self.assert_channels_drained()
        self.assert_updates_exactly_once()

    def summary(self) -> Dict[str, int]:
        """Ledger totals, for test diagnostics."""
        return {
            "events": self.events_seen,
            "messages_sent": sum(v[0] for v in self.sent.values()),
            "messages_delivered": sum(v[0] for v in self.delivered.values()),
            "payload_bytes": sum(v[1] for v in self.sent.values()),
            "pushes_delivered": sum(self.pushes_delivered.values()),
            "contribs_consumed": sum(self.contribs_consumed.values()),
        }


def _install(installed: List[Tuple[object, str]], part: object, name: str,
             wrapper) -> None:
    """Set ``wrapper`` as ``part``'s instance attribute ``name``."""
    setattr(part, name, wrapper)
    installed.append((part, name))


def _uninstall(installed: List[Tuple[object, str]]) -> None:
    """Delete wrappers set as instance attributes, so each part's class
    method shows again.  Two monitors may have wrapped the same
    attribute (a job's transport ``send``); its one instance attribute
    goes with the first deletion."""
    for part, name in installed:
        vars(part).pop(name, None)
    installed.clear()


class MultiJobInvariantMonitor:
    """Invariants for a shared-engine multi-tenant run, plus the
    cross-job ledger.

    Attaches one :class:`InvariantMonitor` per job (all the per-job
    checks — conservation, exactly-once, gating — keep holding *under
    contention*) and adds the boundary check those cannot express:
    **no message sent by one job is ever delivered to another job's
    endpoint**.  Every message is claimed by its sending job at
    ``transport.send`` time and verified at delivery; since key ids and
    machine ids are job-local (every job numbers them from zero), only
    identity tracking can catch a crossing — the ledger therefore keeps
    a strong reference to each claimed message so ``id()`` is never
    reused.  That is test-scale bookkeeping by design: attach it in the
    tenancy suites, not in production sweeps.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.monitors: Dict[str, InvariantMonitor] = {}
        self.events_seen = 0
        self._owner: Dict[int, str] = {}      # id(msg) -> sending job
        self._refs: list = []                 # keepalive: id() stability
        self.sent_by_job: Dict[str, int] = defaultdict(int)
        self.delivered_by_job: Dict[str, int] = defaultdict(int)
        self.crossings = 0
        self._installed: List[Tuple[object, str]] = []
        orig_step = sim.step

        def step() -> bool:
            ran = orig_step()
            if ran:
                self.events_seen += 1
            return ran

        _install(self._installed, sim, "step", step)

    def attach(self, job: str, cluster: ClusterSim) -> InvariantMonitor:
        """Wrap one job's cluster; call before its ``start_run``."""
        if job in self.monitors:
            raise ValueError(f"job {job!r} already monitored")
        if cluster.sim is not self.sim:
            raise ValueError(f"job {job!r} runs on a different engine")
        transport = cluster.transport
        # The ledger wraps FIRST, the per-job monitor second: the
        # monitor's own transport wrap re-registers every deliver
        # endpoint (each RX's ``on_complete``) and then
        # wraps channel ``on_complete`` — anything registered after it
        # would silently discard those channel wrappers.
        orig_send = transport.send

        def send(msg: Message, _job=job) -> None:
            self._owner[id(msg)] = _job
            self._refs.append(msg)
            self.sent_by_job[_job] += 1
            orig_send(msg)

        _install(self._installed, transport, "send", send)
        for machine in list(transport._deliver):
            endpoint = transport._deliver[machine]

            def deliver(msg: Message, _endpoint=endpoint, _job=job) -> None:
                owner = self._owner.get(id(msg))
                if owner != _job:
                    self.crossings += 1
                    raise InvariantViolation(
                        f"message {msg.kind.value} key={msg.key} delivered "
                        f"to job {_job!r} but sent by {owner!r}: "
                        "gradient/update crossed a job boundary")
                self.delivered_by_job[_job] += 1
                _endpoint(msg)

            transport.register(machine, transport._tx[machine],
                               transport._rx[machine], deliver)
        monitor = InvariantMonitor(cluster, wrap_clock=False)
        self.monitors[job] = monitor
        return monitor

    def assert_all_final(self) -> None:
        """Every job's own invariants plus the cross-job ledger."""
        if not self.monitors:
            raise InvariantViolation("no jobs were attached")
        for job, monitor in sorted(self.monitors.items()):
            # The shared clock wrapper counted for everyone.
            monitor.events_seen = self.events_seen
            try:
                monitor.assert_all_final()
            except InvariantViolation as exc:
                raise InvariantViolation(f"job {job!r}: {exc}") from None
        if self.crossings:
            raise InvariantViolation(
                f"{self.crossings} messages crossed job boundaries")
        for job in sorted(self.monitors):
            sent = self.sent_by_job[job]
            delivered = self.delivered_by_job[job]
            if sent != delivered:
                raise InvariantViolation(
                    f"job {job!r}: {sent} messages claimed at send but "
                    f"{delivered} delivered inside the job")

    def release(self) -> None:
        """Delete every wrapper this monitor and its job monitors
        installed, and drop their clusters and the claimed messages
        (see :meth:`InvariantMonitor.release`); counters stay."""
        _uninstall(self._installed)
        for monitor in self.monitors.values():
            monitor.release()
        self._owner.clear()
        self._refs.clear()

    def summary(self) -> Dict[str, int]:
        return {
            "jobs": len(self.monitors),
            "events": self.events_seen,
            "messages_sent": sum(self.sent_by_job.values()),
            "messages_delivered": sum(self.delivered_by_job.values()),
            "crossings": self.crossings,
        }


def simulate_checked(
    model: "ModelSpec",
    strategy: "StrategyConfig",
    config: Optional[ClusterConfig] = None,
    iterations: int = 5,
    warmup: int = 1,
) -> RunResult:
    """Like :func:`repro.sim.cluster.simulate`, but with every invariant
    monitored during the run and asserted afterwards."""
    cluster = ClusterSim(model, strategy, config or ClusterConfig())
    monitor = InvariantMonitor(cluster)
    result = cluster.run(iterations=iterations, warmup=warmup)
    monitor.assert_all_final()
    monitor.release()
    return result
