"""Event-loop node plumbing: named peers and the two faces.

A :class:`Node` is the shared substrate of every role (worker, server
shard, aggregator): it owns every :class:`PeerConnection` it dials or
accepts, an optional listener, and the task bookkeeping for clean
shutdown — a connection no node owns is a drain task nobody stops.  One
OS process can host any number of Nodes on one event loop — the
property that lets a single machine run 64+ workers.

A node talks through at most two **faces**, each written once here:

* the **listener face** (:meth:`Node.listen`) a shard shows its
  clients: one TX sender per accepted connection, made on its first
  frame; ``HEARTBEAT`` answered with ``ACK``; ``BYE`` accounted;
* the **dial face** (:meth:`Node.dial_peers`) a worker shows its
  shards: one prioritized reliable sender per peer and a watchdog that
  fails the node when a peer goes silent or a sender dies.

A worker has the dial face, a shard the listener face, an aggregator
both (a shard to its members, a client to the roots); roles add only
their protocol handlers, ``_on_client`` / ``_on_reply``.

A :class:`PeerConnection` pairs one :class:`AsyncPrioritySender` with
one :class:`~repro.live.transport.ReliableReceiver` over an asyncio
stream.  Its read task decodes frames, routes ``CHUNK_ACK``\\ s to the
sender, and hands fully reassembled messages to a synchronous
``on_message`` callback — handlers never await, so message handling for
one peer can't starve another's.

A connection lives as long as the run: a failed write fails its
sender, and the dial face's watchdog or the peer's EOF fails the node.
"""

from __future__ import annotations

import asyncio
import time
from typing import (Callable, Coroutine, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ...obs.events import EventRecorder
from ...placement.keyplan import PlacedKey
from ..config import LiveClusterConfig
from ..transport import (CONTROL_PRIORITY, ReliableReceiver, TokenBucket,
                         TransportError)
from ..wire import Frame, WireKind, WireMessage
from .transport import (AsyncPrioritySender, chaos_policy,
                        open_connection_with_retry, wait_until)

#: Most bytes one read of a connection's read task takes: it takes
#: whatever the stream holds up to this, so one ``feed`` (and one
#: cumulative ``CHUNK_ACK``) covers every frame that arrived meanwhile.
READ_CHUNK = 1 << 20


class PeerConnection:
    """One named bidirectional link: async sender + reliable receiver."""

    def __init__(self, name: str,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 on_message: Callable[["PeerConnection", WireMessage], None],
                 sender: Optional[AsyncPrioritySender] = None,
                 sender_for: Optional[Callable[
                     [Frame], Optional[AsyncPrioritySender]]] = None,
                 on_eof: Optional[Callable[["PeerConnection"], None]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 accepted: bool = False) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.sender = sender
        self.on_message = on_message
        self.on_eof = on_eof
        self.accepted = accepted
        self._clock = clock
        self.last_rx = clock()
        self.saw_bye = False
        self.closed = False
        self.error: Optional[BaseException] = None
        # Servers learn a connection's identity from its frames: resolve
        # the local sender per frame when none was known at accept time.
        resolve = sender_for if sender_for is not None \
            else (lambda _frame: self.sender)
        self.receiver = ReliableReceiver(sender_for=resolve)
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name=f"{name}:read")

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(READ_CHUNK)
                if not data:
                    break
                self.last_rx = self._clock()
                for msg in self.receiver.feed(data):
                    self.on_message(self, msg)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass  # torn connection == EOF; on_eof decides
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        if not self.closed and self.on_eof is not None:
            self.on_eof(self)

    async def close(self, flush_timeout_s: float = 30.0) -> None:
        """End the connection from this side, leaving no task behind.

        A dialled connection flushes and closes its sender, half-closes
        the stream and stops reading.  An accepted one hangs up second:
        the client's own flush needs our acks, so wait for its EOF —
        whatever is still unacked after that has no reader left.
        """
        if self.accepted:
            await asyncio.wait([self._read_task], timeout=flush_timeout_s)
        else:
            self.closed = True
            if self.sender is not None:
                try:
                    await self.sender.close(flush_timeout_s)
                except TransportError:
                    pass
            try:
                if self.writer.can_write_eof():
                    self.writer.write_eof()  # peer reads our last frames
            except (OSError, RuntimeError):
                pass
        self.abort()
        await self.wait_closed()

    def abort(self) -> None:
        """Tear down without flushing (error-path shutdown)."""
        self.closed = True
        if self.sender is not None:
            self.sender.abort()
        self._read_task.cancel()
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001
            pass

    async def wait_closed(self) -> None:
        """After :meth:`close` or :meth:`abort`: until both tasks ended."""
        tasks = [self._read_task]
        if self.sender is not None:
            tasks.append(self.sender.wait_closed())
        await asyncio.gather(*tasks, return_exceptions=True)

    def release(self) -> None:
        """After :meth:`wait_closed`: drop what ties this connection, its
        node and its sender into reference cycles — the node's
        callbacks, the receiver's sender lookup, the ended tasks and the
        closed stream, whose protocol holds a listener's accept callback.
        Counters stay readable."""
        self.on_message = self.on_eof = None
        self.receiver.sender_for = None
        self._read_task = None
        self.reader = self.writer = None
        if self.sender is not None:
            self.sender.release()


class Node:
    """One logical cluster member on the event loop.

    Roles subclass this: it owns every connection the role dials or
    accepts, hosts an optional listener, spawns supervised tasks, and
    tears everything down idempotently.  ``name`` appears in task names
    and error messages so a 100-connection single-process run stays
    debuggable; ``sender_id`` is what the node's frames carry as their
    sender (worker, shard or group id) and ``machine`` its id in the
    fault plan's machine numbering.

    Every role waits the same way (:meth:`_wait`), on one change event,
    and fails the same way (:meth:`_fail`), into one record (:attr:`error`).
    """

    def __init__(self, name: str, sender_id: int, machine: int,
                 cfg: LiveClusterConfig, epoch0: Optional[float] = None,
                 shaper: Optional[TokenBucket] = None) -> None:
        self.name = name
        self.cfg = cfg
        self.epoch0 = epoch0 if epoch0 is not None else time.monotonic()
        self._sender_id = sender_id
        self._machine = machine
        self._clock = time.monotonic
        # One bucket across connections: the "NIC".
        # An injected shaper (any object with reserve — e.g. a
        # repro.tenancy TenantShare) replaces the private bucket so many
        # nodes can draw from one fair-shared allocation.
        if shaper is not None:
            self._shaper = shaper
        else:
            self._shaper = (TokenBucket(cfg.rate_bytes_per_s,
                                        cfg.burst_bytes)
                            if cfg.rate_bytes_per_s is not None else None)
        #: Set by the roles whose events the driver collects.
        self.recorder: Optional[EventRecorder] = None
        #: Every connection this node dialled or accepted (their counters
        #: feed the run's stats).
        self.conns: List[PeerConnection] = []
        #: Listener face: client id -> the sender replies to it go out on.
        self.client_senders: Dict[int, AsyncPrioritySender] = {}
        # (key, round) -> contributor -> staged gradient vector
        self._staged: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
        self.heartbeat_acks = 0
        #: The node's first failure (None while it runs).
        self.error: Optional[str] = None
        # Set whenever something a wait of this node's is gated on may
        # have changed — a reply, a BYE — and on failure.
        self._changed = asyncio.Event()
        self._prioritized = cfg.strategy_config.prioritized
        self._fifo_seq = 0
        self._listener: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._stopped = False

    # ------------------------------------------------------------------
    def spawn(self, coro: Coroutine[None, None, None]) -> asyncio.Task:
        """Run a coroutine under this node's supervision: if it raises,
        the node fails at once, not when someone awaits the task."""
        task = asyncio.get_running_loop().create_task(
            coro, name=f"{self.name}:{coro.__name__}")
        task.add_done_callback(self._spawned_done)
        self._tasks.append(task)
        return task

    def _spawned_done(self, task: asyncio.Task) -> None:
        exc = None if task.cancelled() else task.exception()
        if exc is not None:
            self._fail(f"{task.get_name()} raised {exc!r}")

    def _fail(self, reason: str) -> None:
        """Record the node's first failure, wake its waits, and hang up
        on every peer at once, as a dead process would: they see EOF
        rather than a silent peer."""
        self._record(reason)
        self.abort()

    def _record(self, reason: str) -> None:
        """Keep the first failure; wake whatever waits on this node."""
        if self.error is None:
            self.error = reason
        self._changed.set()

    async def _wait(self, ready: Callable[[], bool],
                    budget: Optional[float]) -> bool:
        """:func:`wait_until` ``ready()`` or this node's failure (True;
        the caller checks :attr:`error`); False once ``budget`` passed."""
        return await wait_until(
            self._changed, lambda: self.error is not None or ready(), budget)

    def _make_sender(self, writer: asyncio.StreamWriter,
                     peer_machine: int) -> AsyncPrioritySender:
        """The one way a node builds a TX sender, whichever face asks."""
        return AsyncPrioritySender(
            writer, sender_id=self._sender_id, shaper=self._shaper,
            chunk_bytes=self.cfg.chunk_bytes, recorder=self.recorder,
            node=self.name, retry=self.cfg.retry_policy(self._machine),
            chaos=chaos_policy(self.cfg.fault_plan, self._machine,
                               peer_machine, self.epoch0))

    def _priority(self, pk: PlacedKey) -> int:
        if self._prioritized:
            return pk.priority
        self._fifo_seq += 1
        return self._fifo_seq  # FIFO: priority == enqueue order

    def _unexpected(self, conn: PeerConnection,
                    msg: WireMessage) -> RuntimeError:
        """What a handler raises for a kind it has no business getting:
        the read task dies with it and the EOF hook fails the node."""
        return RuntimeError(f"{self.name}: unexpected {msg.kind.name} from "
                            f"{conn.name} (sender id {msg.sender})")

    def _on_eof(self, conn: PeerConnection) -> None:
        """Either face: a connection ended that this node did not close.
        (A shard never says ``BYE`` to those who dialled it.)"""
        if conn.error is not None:
            self._fail(f"receive path from {conn.name} failed: "
                       f"{conn.error!r}")
        elif not conn.saw_bye and not self._stopped:
            self._fail(f"{conn.name} closed the connection without BYE "
                       "— peer died mid-protocol?")

    def _stage(self, msg: WireMessage) -> Dict[int, np.ndarray]:
        """Stage one ``PUSH`` under its (key, round) by contributor and
        return that round's pushes so far: rounds are applied whole, in
        contributor order, whatever order the wire delivered them in."""
        staged = self._staged.setdefault((msg.key, msg.iteration), {})
        if msg.sender in staged:
            raise RuntimeError(
                f"{self.name}: client {msg.sender} double-pushed key "
                f"{msg.key} @ round {msg.iteration}")
        staged[msg.sender] = msg.view()  # read-only: rounds only read it
        return staged

    # ------------------------------------------------------------------
    # Listener face: what a shard shows its clients
    # ------------------------------------------------------------------
    async def listen(self, client_machine: Callable[[int], int]) -> int:
        """Bind an ephemeral port and own every connection accepted on
        it; return the port (reported to the driver).

        ``client_machine`` maps a client id to its machine (for the
        fault plan).  Protocol messages reach the role's synchronous
        ``_on_client(conn, msg)``, which refuses kinds it does not know.
        """
        self._client_machine = client_machine

        def accept(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
            conn = PeerConnection(
                f"{self.name}-conn{len(self.conns)}", reader, writer,
                on_message=self._from_client,
                sender_for=lambda frame: self.client_sender(conn,
                                                            frame.sender),
                on_eof=self._on_eof, clock=self._clock,
                accepted=True)
            self.conns.append(conn)

        self._listener = await asyncio.start_server(accept, self.cfg.host, 0)
        return self._listener.sockets[0].getsockname()[1]

    def client_sender(self, conn: PeerConnection,
                      client: int) -> AsyncPrioritySender:
        """The connection's TX sender, created on its first frame (a
        listener only learns which client a connection belongs to from
        the frames themselves)."""
        if conn.sender is None:
            conn.sender = self._make_sender(conn.writer,
                                            self._client_machine(client))
            self.client_senders[client] = conn.sender
        return conn.sender

    def _from_client(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.HEARTBEAT:
            self.client_sender(conn, msg.sender).send(
                WireKind.ACK, msg.key, msg.iteration, CONTROL_PRIORITY)
        elif msg.kind is WireKind.BYE:
            conn.saw_bye = True
            self._changed.set()
        else:
            self._on_client(conn, msg)

    # ------------------------------------------------------------------
    # Dial face: what a worker shows its shards
    # ------------------------------------------------------------------
    async def dial_peers(self, addresses: Sequence[Tuple[str, int]],
                         peer_machine: Callable[[int], int]
                         ) -> List[PeerConnection]:
        """Connect to every address as ``server{i}``, each connection
        with its own prioritized reliable sender, and watch them all.
        Replies reach the role's synchronous ``_on_reply(conn, msg)``,
        which refuses kinds it does not know."""
        conns = []
        for i, (host, port) in enumerate(addresses):
            reader, writer = await open_connection_with_retry(
                host, port, self.cfg.connect_timeout_s)
            conn = PeerConnection(
                f"server{i}", reader, writer, on_message=self._from_peer,
                sender=self._make_sender(writer, peer_machine(i)),
                on_eof=self._on_eof, clock=self._clock)
            self.conns.append(conn)
            conns.append(conn)
        self.spawn(self._watchdog(conns))
        return conns

    async def _watchdog(self, conns: List[PeerConnection]) -> None:
        """Probe liveness; raising fails the node (:meth:`spawn`)."""
        seq = 0
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            now = self._clock()
            for conn in conns:
                if conn.sender.failed:
                    raise TransportError(
                        f"{self.name}: transport to {conn.name} failed: "
                        f"{conn.sender.failure}")
                stale = now - conn.last_rx
                if stale > self.cfg.peer_timeout_s:
                    raise TransportError(
                        f"{self.name}: no bytes from {conn.name} for "
                        f"{stale:.1f}s (peer_timeout_s="
                        f"{self.cfg.peer_timeout_s}) — peer dead?")
                conn.sender.send(WireKind.HEARTBEAT, 0, seq,
                                 CONTROL_PRIORITY)
            seq += 1

    def _from_peer(self, conn: PeerConnection, msg: WireMessage) -> None:
        if msg.kind is WireKind.ACK:
            self.heartbeat_acks += 1  # answers the watchdog's probe
        else:
            self._on_reply(conn, msg)

    def transport_stats(self) -> Dict[str, int]:
        """Aggregated reliability/chaos counters across every connection
        of this node."""
        totals: Dict[str, int] = {}
        for conn in self.conns:
            for part in (conn.sender, conn.receiver):
                if part is not None:
                    for name, value in part.stats().items():
                        totals[name] = totals.get(name, 0) + value
        return totals

    async def shutdown(self, flush_timeout_s: float = 30.0) -> None:
        """Graceful teardown; returns once nothing of this node runs.

        Closes every connection cleanly, then the listener, then cancels
        the node's tasks and awaits the end of all of them.  Idempotent:
        safe to call from both error paths and normal exit.
        """
        if not self._stopped:
            self._stopped = True
            # Watchdogs first: a probe of a closing sender is no failure.
            for task in self._tasks:
                task.cancel()
            if self._listener is not None:
                self._listener.close()  # accept nothing while closing
            for conn in self.conns:
                if not conn.closed:
                    await conn.close(flush_timeout_s)
        self.abort()
        await self.wait_closed()

    def abort(self) -> None:
        """Immediate teardown: sockets closed, tasks cancelled."""
        self._stopped = True
        for conn in self.conns:
            conn.abort()
        if self._listener is not None:
            self._listener.close()
        for task in self._tasks:
            task.cancel()

    async def wait_closed(self) -> None:
        """After :meth:`abort`: until every task of this node ended."""
        if self._listener is not None:
            await self._listener.wait_closed()
        await asyncio.gather(*self._tasks,
                             *(conn.wait_closed() for conn in self.conns),
                             return_exceptions=True)

    def release(self) -> None:
        """After :meth:`shutdown` or :meth:`wait_closed`: cut this node's
        reference cycles — its connections' (:meth:`PeerConnection.
        release`), its ended tasks and the listener, whose protocol
        factory holds the accept callback — so a finished run is freed
        by reference counting.  Counters and records stay readable."""
        for conn in self.conns:
            conn.release()
        self._tasks.clear()
        self._listener = None
