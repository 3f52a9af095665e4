"""Event-loop node plumbing: named peers, watchdogs, reconnect.

A :class:`Node` is the shared substrate of every role (worker, server
shard, aggregator): it owns every :class:`PeerConnection` it dials or
accepts, an optional listener, and the task bookkeeping for clean
shutdown — a connection no node owns is a drain task nobody stops.  One
OS process can host any number of Nodes on one event loop — the
property that lets a single machine run 64+ workers.

A :class:`PeerConnection` pairs one :class:`AsyncPrioritySender` with
one :class:`~repro.live.transport.ReliableReceiver` over an asyncio
stream.  Its read task decodes frames, routes ``CHUNK_ACK``\\ s to the
sender, and hands fully reassembled messages to a synchronous
``on_message`` callback — handlers never await, so message handling for
one peer can't starve another's.

Reconnect: :meth:`PeerConnection.reconnect` dials the peer again,
resets the receive pipeline (:meth:`ReliableReceiver.reset` — fresh
decoder, inbox, and reassembler, no inherited ``crc_failures`` or
partial frames) and rebinds the sender (backlog renumbered and
retransmitted).  Reliable traffic survives the hop in both directions.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Coroutine, List, Optional, Union

from ..transport import ReliableReceiver, TransportError
from ..wire import Frame, WireMessage
from .transport import AsyncPrioritySender, open_connection_with_retry

#: Read granularity of every connection's read task.
READ_CHUNK = 65536


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
            pass  # torn connection == EOF; reconnect/on_eof decides
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        if not self.closed and self.on_eof is not None:
            self.on_eof(self)

    async def reconnect(self, host: str, port: int,
                        timeout_s: float = 15.0) -> None:
        """Replace a dead connection with a fresh one, preserving the
        sender's reliable backlog and resetting all per-stream state."""
        self._read_task.cancel()
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - already-dead writer
            pass
        reader, writer = await open_connection_with_retry(host, port,
                                                          timeout_s)
        self.reader = reader
        self.writer = writer
        self.receiver.reset()
        self.last_rx = self._clock()
        if self.sender is not None:
            self.sender.rebind(writer)
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name=f"{self.name}:read")

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


class Node:
    """One logical cluster member on the event loop.

    Roles subclass this: it owns every connection the role dials or
    accepts, hosts an optional listener, spawns supervised tasks, and
    tears everything down idempotently.  ``name`` appears in task names
    and error messages so a 100-connection single-process run stays
    debuggable.
    """

    def __init__(self, name: str,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.name = name
        self._clock = clock
        #: Every connection this node ever dialled or accepted, dead
        #: incarnations included (their counters feed the run's stats).
        self.conns: List[PeerConnection] = []
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
            failure = RuntimeError(f"{task.get_name()} raised {exc!r}")
            failure.__cause__ = exc
            self._fail(failure)

    def _fail(self, reason: Union[str, BaseException]) -> None:
        """Record the node's first failure and hang up on its peers."""
        raise NotImplementedError

    async def listen(self, host: str,
                     on_message: Callable[[PeerConnection, WireMessage], None],
                     sender_for: Callable[[PeerConnection, int],
                                          AsyncPrioritySender],
                     on_eof: Callable[[PeerConnection], None]) -> int:
        """Bind an ephemeral port and own every connection accepted on
        it; return the port (reported to the driver).

        A listener only learns which peer a connection belongs to from
        its frames: ``sender_for(conn, peer_id)`` supplies the
        connection's TX sender on first use.
        """
        def accept(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
            conn = PeerConnection(
                f"{self.name}-conn{len(self.conns)}", reader, writer,
                on_message=on_message,
                sender_for=lambda frame: sender_for(conn, frame.sender),
                on_eof=on_eof, clock=self._clock, accepted=True)
            self.conns.append(conn)

        self._listener = await asyncio.start_server(accept, host, 0)
        return self._listener.sockets[0].getsockname()[1]

    async def dial(self, peer_name: str, host: str, port: int,
                   timeout_s: float,
                   make_sender: Callable[[asyncio.StreamWriter],
                                         AsyncPrioritySender],
                   on_message: Callable[[PeerConnection, WireMessage], None],
                   on_eof: Optional[Callable[[PeerConnection], None]] = None,
                   ) -> PeerConnection:
        """Connect to a named peer and own the connection."""
        reader, writer = await open_connection_with_retry(host, port,
                                                          timeout_s)
        conn = PeerConnection(peer_name, reader, writer,
                              on_message=on_message,
                              sender=make_sender(writer),
                              on_eof=on_eof, clock=self._clock)
        self.conns.append(conn)
        return conn

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
