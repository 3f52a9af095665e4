"""Membership layer tests: schedule arithmetic, the EpochTracker state
machine (hypothesis property tests over join/leave orderings), config
validation, and the in-process oracle's use of a schedule.

The tracker properties proven here are the protocol's core safety
claims: epoch commits are strictly monotonic, an epoch never commits
before every barrier token and every earlier round arrived, every round
belongs to exactly one epoch's membership (no round mixes two), and a
worker that leaves and rejoins is handled cleanly as two spans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import run_inprocess
from repro.live.membership import (
    EpochTracker,
    MembershipEpoch,
    MembershipError,
    MembershipSchedule,
)
from tests.scenarios import live_cfg, schedules


def all_tokens(sched: MembershipSchedule):
    """Every JOIN/LEAVE barrier token the schedule ever produces."""
    tokens = []
    for e in range(sched.n_epochs):
        tokens.extend(("join", w, e) for w in sched.active(e))
        tokens.extend(("leave", w, e) for w in sched.leavers(e))
    return tokens


# ----------------------------------------------------------------------
# Schedule arithmetic
# ----------------------------------------------------------------------
@given(sched=schedules())
@settings(max_examples=200, deadline=None)
def test_every_round_belongs_to_exactly_one_epoch(sched):
    """No round mixes two memberships: round -> epoch is a total,
    single-valued map consistent with the epoch round ranges."""
    seen = []
    for e in range(sched.n_epochs):
        seen.extend((t, e) for t in sched.rounds_of(e))
    assert [t for t, _ in seen] == list(range(sched.total_rounds))
    for t, e in seen:
        assert sched.round_epoch(t) == e


@given(sched=schedules())
@settings(max_examples=200, deadline=None)
def test_spans_partition_each_workers_activity(sched):
    """Spans are maximal, disjoint, ordered; rejoin-after-leave means
    more than one span, each one clean (starts with a join, ends with a
    leave or the final epoch)."""
    for w in sched.all_workers:
        spans = sched.spans(w)
        assert spans, f"worker {w} is in all_workers but has no span"
        covered = set()
        prev_end = -2
        for e0, e1 in spans:
            assert e0 <= e1
            assert e0 > prev_end + 1, "adjacent spans must be merged"
            prev_end = e1
            covered.update(range(e0, e1 + 1))
            assert w in sched.joiners(e0)
            if e1 + 1 < sched.n_epochs:
                assert w in sched.leavers(e1)
        assert covered == {e for e in range(sched.n_epochs)
                           if w in sched.active(e)}


@given(sched=schedules())
@settings(max_examples=200, deadline=None)
def test_ranks_are_dense_and_sorted(sched):
    for e in range(sched.n_epochs):
        active = sched.active(e)
        assert list(active) == sorted(active)
        assert [sched.rank_of(e, w) for w in active] == \
            list(range(len(active)))


# ----------------------------------------------------------------------
# EpochTracker property tests over join/leave orderings
# ----------------------------------------------------------------------
@given(sched=schedules(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_tracker_commits_monotonically_under_any_token_order(sched, data):
    """Feed every barrier token in an arbitrary order, committing
    eagerly: commits advance strictly one epoch at a time, never before
    all of the epoch's tokens arrived, and the run finishes."""
    tokens = data.draw(st.permutations(all_tokens(sched)))
    tracker = EpochTracker(sched)
    commits = []
    for kind, w, e in tokens:
        if kind == "join":
            tracker.note_join(w, e)
        else:
            tracker.note_leave(w, e)
        while (not tracker.finished
               and tracker.ready_to_commit(
                   tracker.current + 1,
                   sched.first_round(tracker.current + 1))):
            nxt = tracker.current + 1
            joins, leaves = tracker.missing(nxt)
            assert not joins and not leaves
            tracker.commit(nxt, sched.first_round(nxt))
            commits.append(nxt)
    assert commits == list(range(sched.n_epochs))
    assert tracker.finished


@given(sched=schedules(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_tracker_never_commits_with_missing_tokens(sched, data):
    """Withhold one arbitrary token: the epoch it belongs to (and every
    later one) must never become committable."""
    tokens = all_tokens(sched)
    withheld = data.draw(st.sampled_from(tokens))
    order = data.draw(st.permutations([t for t in tokens if t != withheld]))
    kind, _w, e = withheld
    blocked_epoch = e if kind == "join" else e + 1
    tracker = EpochTracker(sched)
    for k, w, ep in order:
        if k == "join":
            tracker.note_join(w, ep)
        else:
            tracker.note_leave(w, ep)
        while (not tracker.finished
               and tracker.ready_to_commit(
                   tracker.current + 1,
                   sched.first_round(tracker.current + 1))):
            tracker.commit(tracker.current + 1,
                           sched.first_round(tracker.current + 1))
    assert tracker.current < blocked_epoch


def test_tracker_rejects_duplicates_and_strangers():
    sched = MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0, 1), rounds=1),
        MembershipEpoch(workers=(0, 2), rounds=1),
    ))
    tracker = EpochTracker(sched)
    tracker.note_join(0, 0)
    with pytest.raises(MembershipError):
        tracker.note_join(0, 0)          # duplicate
    with pytest.raises(MembershipError):
        tracker.note_join(3, 0)          # not in the schedule
    with pytest.raises(MembershipError):
        tracker.note_leave(0, 0)         # 0 stays for epoch 1
    tracker.note_join(1, 0)
    tracker.commit(0, 0)
    with pytest.raises(MembershipError):
        tracker.note_join(1, 0)          # epoch already committed
    with pytest.raises(MembershipError):
        tracker.commit(1, sched.first_round(1))  # tokens missing


def test_tracker_rejects_commit_before_rounds_applied():
    sched = MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0,), rounds=3),
        MembershipEpoch(workers=(0, 1), rounds=1),
    ))
    tracker = EpochTracker(sched)
    tracker.note_join(0, 0)
    tracker.commit(0, 0)
    tracker.note_join(0, 1)
    tracker.note_join(1, 1)
    assert not tracker.ready_to_commit(1, rounds_applied=2)
    assert tracker.ready_to_commit(1, rounds_applied=3)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_schedule_must_cover_config_iterations():
    sched = MembershipSchedule.static(2, iterations=3)
    with pytest.raises(MembershipError):
        live_cfg(n_workers=2, iterations=4, membership=sched)


def test_schedule_rejects_worker_outside_id_space():
    sched = MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0, 5), rounds=4),))
    with pytest.raises(MembershipError):
        live_cfg(n_workers=3, iterations=4, membership=sched)


def test_schedule_rejects_indivisible_epoch_batch():
    sched = MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0, 1, 2), rounds=2),
        MembershipEpoch(workers=(0, 1), rounds=2),
    ))
    with pytest.raises(MembershipError):
        live_cfg(batch_size=9, membership=sched)  # 9 % 2 != 0


def test_schedule_rejects_two_tier():
    sched = MembershipSchedule.static(4, iterations=4)
    with pytest.raises(MembershipError):
        live_cfg(n_workers=4, batch_size=8, placement="two_tier",
                 membership=sched)


def test_epoch_key_tables_share_one_key_universe():
    sched = MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0, 1), rounds=2),
        MembershipEpoch(workers=(0, 1, 2), rounds=2, placement="balanced"),
    ))
    cfg = live_cfg(membership=sched)
    plans = cfg.key_plan()
    assert len(plans) == 2
    ref = [(pk.key, pk.layer_index, pk.span) for pk in plans[0]]
    got = [(pk.key, pk.layer_index, pk.span) for pk in plans[1]]
    assert got == ref, "placement overrides may only move keys"
    assert any(a.server != b.server for a, b in zip(*plans)), \
        "balanced override should move at least one key between shards"


# ----------------------------------------------------------------------
# The in-process oracle under a schedule
# ----------------------------------------------------------------------
def test_inprocess_oracle_depends_on_membership():
    """A membership change must actually change the trained values
    (otherwise every elastic conformance check would be vacuous)."""
    static = live_cfg(membership=MembershipSchedule.static(3, 4))
    elastic = live_cfg(membership=MembershipSchedule(epochs=(
        MembershipEpoch(workers=(0, 1), rounds=2),
        MembershipEpoch(workers=(0, 1, 2), rounds=2),
    )))
    a = run_inprocess(static, "p3")
    b = run_inprocess(elastic, "p3")
    assert any(not np.array_equal(a[name], b[name]) for name in a)
