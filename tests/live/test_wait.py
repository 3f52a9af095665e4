"""The live cluster's one waiting primitive and the budgets it runs on.

Every wait of :mod:`repro.live.aio` goes through
:func:`~repro.live.aio.transport.wait_until`, so "bounded and cancel-safe"
is pinned here, once:

* **Cancel-safe** — a notify and a ``cancel()`` landing in the same loop
  pass propagate ``CancelledError``.  The same test written against
  ``asyncio.wait_for`` fails on Python 3.11: it returns normally, and
  its caller waits on as if never cancelled (the shape behind a 60 s
  teardown hang).
* **Bounded** — an expired budget returns False on time, through
  spurious wakes; a notify before the budget returns True; nothing — no
  timer handle, no task — outlives the call.
* **One way** — no ``wait_for(`` is left in ``repro.live`` or
  ``repro.tenancy``.
* **Budgets that make sense** — ``LiveClusterConfig`` refuses liveness
  budgets that spin the watchdog or declare a live peer dead.
"""

from __future__ import annotations

import asyncio
import pathlib
import sys

import pytest

import repro
from repro.live import LiveClusterConfig
from repro.live.aio.transport import wait_until


async def _via_wait_until(event, ready):
    await wait_until(event, ready, 5.0)


async def _via_wait_for(event, ready):
    while not ready():
        event.clear()
        await asyncio.wait_for(event.wait(), 5.0)


@pytest.mark.asyncio
@pytest.mark.parametrize("waiter", [
    _via_wait_until,
    pytest.param(_via_wait_for, marks=pytest.mark.xfail(
        sys.version_info < (3, 12), strict=True,
        reason="3.11's wait_for swallows a cancel that lands with a set"))],
    ids=["wait_until", "wait_for"])
async def test_a_notify_and_a_cancel_in_one_pass_propagate_the_cancel(
        waiter):
    loop = asyncio.get_running_loop()
    event, state = asyncio.Event(), []
    task = loop.create_task(waiter(event, lambda: bool(state)))
    for _ in range(3):  # let the waiter (and any task it made) park
        await asyncio.sleep(0)

    def notify_and_cancel():
        state.append(1)
        event.set()
        task.cancel()

    loop.call_soon(notify_and_cancel)
    with pytest.raises(asyncio.CancelledError):
        await task


def _record_timers(loop):
    """Wrap ``loop.call_later``; return the list of handles it makes
    (``call_at``, which the tests use for their own timers, is not)."""
    handles, real = [], loop.call_later

    def call_later(*args):
        handles.append(real(*args))
        return handles[-1]

    loop.call_later = call_later
    return handles


def _assert_nothing_left(handles):
    assert all(handle.cancelled() for handle in handles)
    assert asyncio.all_tasks() == {asyncio.current_task()}


@pytest.mark.asyncio
async def test_an_expired_budget_returns_false_on_time():
    loop = asyncio.get_running_loop()
    handles = _record_timers(loop)
    event = asyncio.Event()
    for at in (0.01, 0.03):  # spurious wakes: ready() stays False
        loop.call_at(loop.time() + at, event.set)
    start = loop.time()
    assert await wait_until(event, lambda: False, 0.05) is False
    elapsed = loop.time() - start
    assert 0.05 <= elapsed < 0.05 + 0.02, f"took {elapsed:.3f}s"
    assert len(handles) >= 3  # re-armed after each spurious wake
    _assert_nothing_left(handles)


@pytest.mark.asyncio
async def test_a_notify_before_the_budget_returns_true():
    loop = asyncio.get_running_loop()
    handles = _record_timers(loop)
    event, state = asyncio.Event(), []
    loop.call_at(loop.time() + 0.01,
                 lambda: (state.append(1), event.set()))
    start = loop.time()
    assert await wait_until(event, lambda: bool(state), 5.0) is True
    assert loop.time() - start < 1.0
    assert await wait_until(event, lambda: True, 5.0) is True  # no wait
    _assert_nothing_left(handles)


@pytest.mark.asyncio
async def test_no_budget_arms_no_timer_and_a_cancel_leaves_none():
    loop = asyncio.get_running_loop()
    handles = _record_timers(loop)
    event, state = asyncio.Event(), []
    loop.call_soon(lambda: (state.append(1), event.set()))
    assert await wait_until(event, lambda: bool(state), None) is True
    assert handles == []
    task = loop.create_task(wait_until(asyncio.Event(), lambda: False, 60))
    await asyncio.sleep(0)
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task
    assert len(handles) == 1
    _assert_nothing_left(handles)


def test_no_wait_for_in_the_live_cluster_or_tenancy():
    """Every wait goes through ``wait_until`` (and every task wait
    through ``asyncio.wait``): ``wait_for`` wraps a cancel it can lose."""
    root = pathlib.Path(repro.__file__).parent
    hits = [f"{path.relative_to(root)}:{n}"
            for package in ("live", "tenancy")
            for path in sorted((root / package).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "wait_for(" in line]
    assert hits == []


@pytest.mark.parametrize("overrides, message", [
    (dict(heartbeat_interval_s=0.0), "heartbeat_interval_s must be pos"),
    (dict(connect_timeout_s=0.0), "connect_timeout_s must be pos"),
    (dict(round_timeout_s=-1.0), "round_timeout_s must be pos"),
    (dict(heartbeat_interval_s=0.5, peer_timeout_s=0.5),
     "heartbeat_interval_s must be below peer_timeout_s")],
    ids=["spinning-watchdog", "no-dial-budget", "no-round-budget",
         "probe-slower-than-death"])
def test_config_refuses_liveness_budgets_that_cannot_work(overrides,
                                                          message):
    with pytest.raises(ValueError, match=message):
        LiveClusterConfig(**overrides)
