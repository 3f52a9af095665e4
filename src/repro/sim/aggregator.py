"""Simulated intra-group aggregator (two-tier topology).

Parameter Hub / Parameter Box style hierarchical aggregation: workers
are partitioned into groups; each group's gradient pushes for a key are
combined by an aggregator colocated on the group's lead machine, and a
single combined push travels on to the root PS shard.  Root fan-in per
key drops from W pushes to W/g, at the cost of one extra hop for every
non-lead worker.

The aggregator has no pipeline of its own.  Facing its members it *is*
a shard (:class:`~repro.sim.server.SimServerShard`) whose clients are
the group: the same push counting, work queue and timed job (a
combination costs what an update over ``group_size`` contributions
costs), the same receipt ``ACK`` under credit flow control, pause and
resume, and the same parked-pull bookkeeping.  Facing the roots it is
one client whose id is the *group id* — root shards count groups, not
workers.  Two things differ from a shard, and only they live here:

* a finished job is not an applied update but a partial sum, so it
  leaves as one ``PUSH`` upstream and nothing is applied or replied;
* replies start when the root answers.  Its ``PARAM`` broadcast and
  ``NOTIFY`` fan out to the members as a shard's own would; member
  ``PULL_REQ``\\ s deduplicate — the first of a round goes upstream, the
  returned value serves the parked pulls, stays for the late ones and
  is dropped once the whole group consumed it.  Per-key rounds are
  strictly ordered here (a member cannot push round ``t+1`` before
  consuming round ``t``), which is what makes one slot per key enough.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..strategies.base import PullPolicy
from .network import Message, MsgKind, Role
from .server import SimServerShard

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterSim

_PUSH = MsgKind.PUSH
_PARAM = MsgKind.PARAM
_NOTIFY = MsgKind.NOTIFY
_PULL_REQ = MsgKind.PULL_REQ
_ACK = MsgKind.ACK


class SimAggregator(SimServerShard):
    """One group's aggregator: shard to its members, client to the roots."""

    def __init__(self, ctx: "ClusterSim", group_id: int) -> None:
        self.gid = group_id
        self.members: List[int] = list(ctx.groups[group_id])
        self._init_pipeline(
            ctx, f"agg{group_id}", ctx.aggregator_machine(group_id), ctx.keys,
            self.members, {w: ctx.worker_machine(w) for w in self.members},
            Role.WORKER)
        self._push_payload = ctx.push_payload
        self._root_machine = ctx.key_server_machine

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind is _PUSH:
            self._on_push(msg)
        elif kind is _PULL_REQ:
            self._on_pull(msg)
        elif kind is _PARAM or kind is _NOTIFY:
            self._on_root_reply(msg)
        elif kind is not _ACK:  # pragma: no cover - protocol violation
            # (An ACK is the root's receipt of our combined push under
            # credit flow control; the credit windows are the members'.)
            raise RuntimeError(f"{self.name} received unexpected {msg}")

    # -- client face: towards the root shards -------------------------
    def _to_root(self, kind: MsgKind, key: int, payload: int) -> None:
        self._transport.send(Message(
            kind, key, payload, self._key_priority[key], self.machine,
            self._root_machine[key], Role.SERVER, self.gid,
        ))

    def _publish(self, key: int, recipients: List[int],
                 n_contribs: int) -> None:
        """A finished job here is the group's partial sum: one combined
        ``PUSH`` upstream.  Nothing was applied, so nothing is emitted
        and nobody is answered yet."""
        self._to_root(_PUSH, key, self._push_payload[key])

    def _on_pull(self, msg: Message) -> None:
        key = msg.key
        fresh = not (self.params_available[key] or self.pulls_waiting[key]
                     or self.replies_sent[key])
        self._serve_or_park(key, msg.sender_worker)
        if fresh:
            # First member pull of a round: fetch from the root once.
            self._to_root(_PULL_REQ, key, 0)

    # -- shard face: replies start with the root's answer -------------
    def _on_root_reply(self, msg: Message) -> None:
        if msg.kind is _NOTIFY or self._pull_policy is PullPolicy.BROADCAST:
            self._dispatch(msg.key, self._all_recipients)
        else:
            # The value the round's first member pull fetched: answer
            # the pulls parked behind it, in arrival order.
            self._release_pulls(msg.key)
