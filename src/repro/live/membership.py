"""Elastic membership: scripted epochs of workers joining and leaving.

The static live stack fixes the worker set at config time; real clusters
do not.  This module adds the *membership epoch* vocabulary the asyncio
stack (:mod:`repro.live.aio`) executes:

* A :class:`MembershipSchedule` partitions the run's global rounds into
  consecutive **epochs**, each with its own active worker set (and
  optionally its own placement policy — the driver re-plans
  ``repro.placement`` at epoch boundaries).  The schedule is *declared
  in the config*, so every process derives the identical membership
  world deterministically — the same trick the static stack plays with
  its key plan, extended in time.
* An :class:`EpochTracker` is the server-side pure state machine that
  decides when an epoch may **commit**: every active member of epoch
  ``e`` has sent ``JOIN(e)``, every member departing after ``e-1`` has
  sent ``LEAVE(e-1)``, and every round of earlier epochs has been
  applied.  JOIN/LEAVE travel at
  :data:`~repro.live.transport.BARRIER_PRIORITY` — *after* all data on
  the connection — so a token's arrival certifies the sender's prior
  epoch traffic was fully processed, which is what makes key migration
  between epochs race-free.
* :func:`repro.analysis.calibration.run_inprocess` is the ground truth:
  the in-process functional store driven round by round with whatever
  membership each epoch prescribes.  The asyncio cluster must reproduce
  its final parameters bit-for-bit — the elastic extension of the
  paper's Section 5.6 convergence-neutrality claim.

Numerics under elasticity are defined exactly once, here: in epoch
``e`` the active workers, sorted by id, take **ranks** ``0..n-1``; rank
``i`` computes gradients on batch slice ``[i*b, (i+1)*b)`` with
``b = batch_size // n_active``; shards divide the gradient sum by
``n_active``; momentum is per key and carries across epochs unchanged.
Placement never affects values (per-key optimizer state), so per-epoch
re-placement only *moves* state between shards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports us)
    from .config import LiveClusterConfig


class MembershipError(ValueError):
    """A schedule or handshake message violates the membership protocol."""


@dataclass(frozen=True)
class MembershipEpoch:
    """One epoch: which workers are active, for how many global rounds.

    ``placement`` optionally overrides the config's placement policy for
    this epoch (``two_tier`` excluded — aggregator topology cannot change
    mid-run).  ``None`` inherits the config's policy.
    """

    workers: Tuple[int, ...]
    rounds: int
    placement: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise MembershipError("epoch must span at least one round")
        if not self.workers:
            raise MembershipError("epoch must have at least one worker")
        ordered = tuple(sorted(set(int(w) for w in self.workers)))
        if ordered != tuple(self.workers):
            raise MembershipError(
                f"epoch workers must be sorted and unique, got {self.workers}")
        if any(w < 0 for w in self.workers):
            raise MembershipError("worker ids must be non-negative")
        if self.placement == "two_tier":
            raise MembershipError(
                "two_tier cannot be a per-epoch placement override")


@dataclass(frozen=True)
class MembershipSchedule:
    """The run's complete membership script, epoch by epoch."""

    epochs: Tuple[MembershipEpoch, ...]

    def __post_init__(self) -> None:
        if not self.epochs:
            raise MembershipError("schedule needs at least one epoch")
        # Normalize list inputs for ergonomic construction in tests.
        object.__setattr__(self, "epochs", tuple(self.epochs))

    @staticmethod
    def static(n_workers: int, iterations: int) -> "MembershipSchedule":
        """The degenerate schedule: one epoch, everyone, all rounds."""
        return MembershipSchedule(epochs=(
            MembershipEpoch(workers=tuple(range(n_workers)),
                            rounds=iterations),))

    # ------------------------------------------------------------------
    # Round / epoch arithmetic
    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def total_rounds(self) -> int:
        return sum(e.rounds for e in self.epochs)

    def first_round(self, epoch: int) -> int:
        """Global index of the epoch's first round."""
        self._check_epoch(epoch)
        return sum(e.rounds for e in self.epochs[:epoch])

    def rounds_of(self, epoch: int) -> range:
        start = self.first_round(epoch)
        return range(start, start + self.epochs[epoch].rounds)

    def round_epoch(self, round_idx: int) -> int:
        """Which epoch a global round belongs to."""
        if round_idx < 0 or round_idx >= self.total_rounds:
            raise MembershipError(
                f"round {round_idx} outside schedule "
                f"(total {self.total_rounds})")
        start = 0
        for e, epoch in enumerate(self.epochs):
            if round_idx < start + epoch.rounds:
                return e
            start += epoch.rounds
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Membership sets
    # ------------------------------------------------------------------
    def active(self, epoch: int) -> Tuple[int, ...]:
        self._check_epoch(epoch)
        return self.epochs[epoch].workers

    def rank_of(self, epoch: int, worker: int) -> int:
        """The worker's rank (batch-slice index) within an epoch."""
        workers = self.active(epoch)
        if worker not in workers:
            raise MembershipError(
                f"worker {worker} is not active in epoch {epoch}")
        return workers.index(worker)

    def joiners(self, epoch: int) -> Tuple[int, ...]:
        """Workers active in ``epoch`` but not in ``epoch - 1``."""
        self._check_epoch(epoch)
        if epoch == 0:
            return self.active(0)
        prev = set(self.active(epoch - 1))
        return tuple(w for w in self.active(epoch) if w not in prev)

    def leavers(self, epoch: int) -> Tuple[int, ...]:
        """Workers active in ``epoch`` but not in ``epoch + 1``.

        The final epoch has no leavers: its members shut down with BYE,
        no handoff needed.
        """
        self._check_epoch(epoch)
        if epoch + 1 >= self.n_epochs:
            return ()
        nxt = set(self.active(epoch + 1))
        return tuple(w for w in self.active(epoch) if w not in nxt)

    @property
    def all_workers(self) -> Tuple[int, ...]:
        seen: Set[int] = set()
        for e in self.epochs:
            seen.update(e.workers)
        return tuple(sorted(seen))

    @property
    def max_worker(self) -> int:
        return max(self.all_workers)

    def spans(self, worker: int) -> List[Tuple[int, int]]:
        """The worker's contiguous activity spans, as inclusive epoch
        ranges.  A worker with more than one span leaves and later
        *rejoins* — each span is a fresh incarnation (new connection,
        fresh transport state)."""
        spans: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for e in range(self.n_epochs):
            here = worker in self.active(e)
            if here and start is None:
                start = e
            elif not here and start is not None:
                spans.append((start, e - 1))
                start = None
        if start is not None:
            spans.append((start, self.n_epochs - 1))
        return spans

    def _check_epoch(self, epoch: int) -> None:
        if epoch < 0 or epoch >= self.n_epochs:
            raise MembershipError(
                f"epoch {epoch} outside schedule (n_epochs={self.n_epochs})")

    # ------------------------------------------------------------------
    # Validation against a config
    # ------------------------------------------------------------------
    def validate(self, cfg: "LiveClusterConfig") -> None:
        """Check the schedule is executable under ``cfg``.

        Raises :class:`MembershipError` on: round-count mismatch, worker
        ids outside the config's machine-id space, per-epoch batch
        indivisibility, two_tier topology, or per-epoch key plans that
        do not share one key universe (placement overrides may *move*
        keys between shards, never re-slice them — otherwise optimizer
        state could not migrate).
        """
        if self.total_rounds != cfg.iterations:
            raise MembershipError(
                f"schedule spans {self.total_rounds} rounds but config runs "
                f"{cfg.iterations} iterations")
        if cfg.placement == "two_tier":
            raise MembershipError(
                "elastic membership does not support two_tier placement")
        if self.max_worker >= cfg.n_workers:
            raise MembershipError(
                f"worker id {self.max_worker} outside config's "
                f"n_workers={cfg.n_workers} id space")
        for e, epoch in enumerate(self.epochs):
            if cfg.batch_size % len(epoch.workers):
                raise MembershipError(
                    f"epoch {e}: batch_size {cfg.batch_size} not divisible "
                    f"by {len(epoch.workers)} active workers")
        # One key universe across all epochs (modulo shard assignment).
        universes = [[dc_replace(pk, server=0) for pk in table]
                     for table in cfg.key_plan()]
        for e, universe in enumerate(universes[1:], start=1):
            if universe != universes[0]:
                raise MembershipError(
                    f"epoch {e} placement re-slices keys; per-epoch "
                    "placement may only move keys between shards")


class EpochTracker:
    """Server-side membership state machine (pure, substrate-free).

    Tracks which JOIN/LEAVE barrier tokens have arrived and decides when
    the next epoch may commit.  One tracker per shard; all shards reach
    the same commit decisions because they see the same tokens (every
    worker sends its tokens to every shard).

    Invariants enforced (and property-tested):

    * commits are strictly monotonic, one epoch at a time, from -1;
    * a JOIN/LEAVE is only accepted from a worker the schedule names;
    * duplicates are rejected (the reliable transport already dedups,
      so a duplicate here is a protocol bug, not a network artifact);
    * an epoch cannot commit until all rounds of earlier epochs applied.
    """

    def __init__(self, schedule: MembershipSchedule) -> None:
        self.schedule = schedule
        self.current = -1            # last committed epoch
        self._joined: Dict[int, Set[int]] = {}
        self._left: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def note_join(self, worker: int, epoch: int) -> None:
        """Record ``JOIN(epoch)`` from ``worker``."""
        self.schedule._check_epoch(epoch)
        if worker not in self.schedule.active(epoch):
            raise MembershipError(
                f"JOIN({epoch}) from worker {worker}, which the schedule "
                f"does not name in that epoch")
        if epoch <= self.current:
            raise MembershipError(
                f"JOIN({epoch}) from worker {worker} after the epoch "
                f"committed (current={self.current})")
        joined = self._joined.setdefault(epoch, set())
        if worker in joined:
            raise MembershipError(
                f"duplicate JOIN({epoch}) from worker {worker}")
        joined.add(worker)

    def note_leave(self, worker: int, epoch: int) -> None:
        """Record ``LEAVE(epoch)`` from ``worker`` (departing after it)."""
        self.schedule._check_epoch(epoch)
        if worker not in self.schedule.leavers(epoch):
            raise MembershipError(
                f"LEAVE({epoch}) from worker {worker}, which the schedule "
                f"does not name as a leaver of that epoch")
        if epoch < self.current:
            raise MembershipError(
                f"LEAVE({epoch}) from worker {worker} arrived after epoch "
                f"{epoch + 1} committed (current={self.current})")
        left = self._left.setdefault(epoch, set())
        if worker in left:
            raise MembershipError(
                f"duplicate LEAVE({epoch}) from worker {worker}")
        left.add(worker)

    # ------------------------------------------------------------------
    def missing(self, epoch: int) -> Tuple[Set[int], Set[int]]:
        """Outstanding ``(joins, leaves)`` blocking the epoch's commit
        (token view only; round progress is the caller's input)."""
        self.schedule._check_epoch(epoch)
        joins = set(self.schedule.active(epoch)) - self._joined.get(epoch,
                                                                    set())
        leaves: Set[int] = set()
        if epoch > 0:
            leaves = (set(self.schedule.leavers(epoch - 1))
                      - self._left.get(epoch - 1, set()))
        return joins, leaves

    def ready_to_commit(self, epoch: int, rounds_applied: int) -> bool:
        """May ``epoch`` commit, given this many globally applied rounds?"""
        if epoch != self.current + 1 or epoch >= self.schedule.n_epochs:
            return False
        if rounds_applied < self.schedule.first_round(epoch):
            return False
        joins, leaves = self.missing(epoch)
        return not joins and not leaves

    def commit(self, epoch: int, rounds_applied: int) -> None:
        if not self.ready_to_commit(epoch, rounds_applied):
            raise MembershipError(
                f"epoch {epoch} is not ready to commit "
                f"(current={self.current}, rounds_applied={rounds_applied}, "
                f"missing={self.missing(epoch) if epoch < self.schedule.n_epochs else '-'})")
        self.current = epoch

    @property
    def finished(self) -> bool:
        return self.current == self.schedule.n_epochs - 1
