"""Property battery for cross-job fairness (hypothesis, derandomized).

Three promises from ``docs/tenancy.md``, hunted under arbitrary weights,
op sequences and arrival orders:

1. **Weighted max-min fairness** — greedy (always-backlogged) tenants
   drain the shared link in proportion to their weights;
2. **Work conservation** — the link never idles while anyone is
   backlogged: the total goodput matches the full link rate, and an
   idle tenant's share is donated to the active ones;
3. **Starvation freedom** — every reservation's wait is bounded by the
   outstanding debt over the link rate, and the FIFO scheduler admits
   every job eventually, never bypassing an eligible head-of-line job
   that is blocked only on capacity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy import (
    ClusterLease,
    FairShaper,
    JobScheduler,
    JobSpec,
    TenancyError,
)

pytestmark = pytest.mark.tenancy

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def greedy_bytes(weights, rate=1000.0, burst=100, chunk=50, horizon=200.0,
                 active=None):
    """Closed-loop greedy senders sharing one FairShaper.

    Each active tenant keeps a reservation outstanding at all times
    (reserve -> sleep ``wait`` -> reserve ...), all driven off one fake
    clock; returns bytes put on the wire per tenant by ``horizon``.
    """
    clk = FakeClock()
    shaper = FairShaper(rate, burst, clock=clk)
    shares = {n: shaper.add_tenant(n, w) for n, w in sorted(weights.items())}
    if active is None:
        active = list(weights)
    next_free = {n: 0.0 for n in active}
    sent = {n: 0 for n in weights}
    while True:
        name = min(next_free, key=lambda n: (next_free[n], n))
        t = next_free[name]
        if t >= horizon:
            break
        clk.t = max(clk.t, t)
        wait = shares[name].reserve(chunk)
        assert wait >= 0.0
        sent[name] += chunk
        next_free[name] = clk.t + wait
    return sent


# ----------------------------------------------------------------------
# FairShaper: fairness + work conservation
# ----------------------------------------------------------------------
@SETTINGS
@given(w1=st.integers(min_value=1, max_value=8),
       w2=st.integers(min_value=1, max_value=8))
def test_weighted_max_min_fairness(w1: int, w2: int) -> None:
    sent = greedy_bytes({"a": float(w1), "b": float(w2)})
    assert sent["a"] / sent["b"] == pytest.approx(w1 / w2, rel=0.15)


@SETTINGS
@given(weights=st.lists(st.integers(min_value=1, max_value=6),
                        min_size=1, max_size=5))
def test_work_conservation_full_link(weights) -> None:
    """Backlogged tenants collectively drain the whole link rate."""
    rate, horizon, burst, chunk = 1000.0, 100.0, 100, 50
    wmap = {f"t{i}": float(w) for i, w in enumerate(weights)}
    sent = greedy_bytes(wmap, rate=rate, burst=burst, chunk=chunk,
                        horizon=horizon)
    total = sum(sent.values())
    # Lower bound: the wire never idles.  Upper bound: rate * horizon
    # plus the initial burst credit and the debt still in flight at the
    # horizon (the wait forecast ignores competitors' *future* arrivals,
    # so a few chunks per tenant can be outstanding).
    assert total >= rate * horizon
    assert total <= rate * horizon + burst + 10 * chunk * len(weights)


@SETTINGS
@given(w_active=st.integers(min_value=1, max_value=6),
       w_idle=st.integers(min_value=1, max_value=6))
def test_idle_tenant_donates_share(w_active: int, w_idle: int) -> None:
    """A lone active tenant gets the full link regardless of weights."""
    rate, horizon = 1000.0, 100.0
    sent = greedy_bytes({"busy": float(w_active), "idle": float(w_idle)},
                        rate=rate, horizon=horizon, active=["busy"])
    assert sent["idle"] == 0
    assert sent["busy"] >= rate * horizon  # not rate * w/(w+w') * horizon


@SETTINGS
@given(ops=st.lists(
    st.tuples(st.sampled_from(("reserve", "tick")),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=500)),
    max_size=60))
def test_tokens_never_exceed_burst_cap(ops) -> None:
    """Arbitrary reserve/advance interleavings never *lift* a
    tenant above its burst share: after any op, tokens <= max(before,
    cap).  (A tenant registered early may start above its final cap —
    add_tenant splits the burst among the members known so far — but no
    accrual ever adds to a surplus.)"""
    clk = FakeClock()
    shaper = FairShaper(1000.0, 300, clock=clk)
    names = ["a", "b", "c"]
    shares = {n: shaper.add_tenant(n, float(i + 1))
              for i, n in enumerate(names)}
    for kind, who, amount in ops:
        name = names[who]
        before = {n: shaper.tokens(n) for n in names}
        if kind == "reserve":
            assert shares[name].reserve(amount) >= 0.0
        else:
            clk.t += amount / 1000.0
            shaper.reserve(name, 0)  # force an _advance at the new time
        for n in names:
            assert shaper.tokens(n) <= max(before[n],
                                           shares[n].burst) + 1e-6


@SETTINGS
@given(debts=st.lists(st.integers(min_value=0, max_value=5000),
                      min_size=3, max_size=3),
       nbytes=st.integers(min_value=1, max_value=5000))
def test_reserve_wait_bounded_by_debt(debts, nbytes) -> None:
    """Starvation freedom at the shaper: the wait for a reservation is
    at most total-outstanding-debt / link-rate, at least own-debt / rate."""
    clk = FakeClock()
    rate = 1000.0
    shaper = FairShaper(rate, 100, clock=clk)
    names = ["a", "b", "c"]
    shares = {n: shaper.add_tenant(n) for n in names}
    for n, d in zip(names, debts):
        if d:
            shares[n].reserve(d)
    wait = shares["a"].reserve(nbytes)
    own = -shaper.tokens("a")
    total = sum(max(0.0, -shaper.tokens(n)) for n in names)
    if own > 0:
        assert own / rate - 1e-6 <= wait <= total / rate + 1e-6
    else:
        assert wait == 0.0


def test_shaper_validation() -> None:
    shaper = FairShaper(100.0, 10)
    shaper.add_tenant("a")
    with pytest.raises(ValueError):
        shaper.add_tenant("a")
    with pytest.raises(ValueError):
        shaper.add_tenant("b", weight=0.0)
    with pytest.raises(ValueError):
        shaper.reserve("a", -1)
    with pytest.raises(ValueError):
        FairShaper(0.0)


# ----------------------------------------------------------------------
# JobScheduler: starvation freedom + FIFO no-bypass
# ----------------------------------------------------------------------
@st.composite
def workloads(draw):
    n_slots = draw(st.integers(min_value=1, max_value=8))
    n_jobs = draw(st.integers(min_value=1, max_value=10))
    jobs = []
    for i in range(n_jobs):
        deps = ()
        if i:
            picks = draw(st.sets(
                st.integers(min_value=0, max_value=i - 1), max_size=2))
            deps = tuple(f"j{d}" for d in sorted(picks))
        jobs.append(JobSpec(
            name=f"j{i}", tenant=f"t{i % 3}",
            n_workers=draw(st.integers(min_value=1, max_value=n_slots)),
            arrival_s=float(draw(st.integers(min_value=0, max_value=10))),
            after=deps))
    return n_slots, jobs


def drive(scheduler: JobScheduler, completion_order, max_steps=500):
    """Run the admit/complete loop, checking FIFO no-bypass at every
    admission: a job is admitted only if every earlier-queued, arrived
    job still pending has an unmet dependency (i.e. the only thing that
    may hold back an eligible predecessor is head-of-line capacity —
    and then nothing behind it gets in either)."""
    now = 0.0
    for _ in range(max_steps):
        admissions = scheduler.next_admissions(now)
        pending = sorted(scheduler._queue,
                         key=lambda j: (j.arrival_s, j.name))
        for job in admissions:
            for earlier in pending:
                if (earlier.arrival_s, earlier.name) >= (job.arrival_s,
                                                         job.name):
                    break
                if earlier in admissions:
                    continue
                assert not scheduler._eligible(earlier, now), (
                    f"{job.name} bypassed eligible {earlier.name}")
            scheduler.admit(job, now)
        if scheduler.done:
            return now
        if scheduler.running:
            pick = completion_order.draw(
                st.sampled_from(sorted(scheduler.running)))
            now += 1.0
            scheduler.complete(pick, now)
        else:
            nxt = scheduler.next_arrival(now)
            assert nxt is not None, "stuck: nothing running or arriving"
            now = nxt
    raise AssertionError("scheduler did not finish (starvation?)")


@SETTINGS
@given(wl=workloads(), completion_order=st.data())
def test_every_job_eventually_runs(wl, completion_order) -> None:
    n_slots, jobs = wl
    scheduler = JobScheduler(jobs, ClusterLease(n_slots))
    drive(scheduler, completion_order)
    admitted = [e.job for e in scheduler.log if e.kind == "admit"]
    completed = [e.job for e in scheduler.log if e.kind == "complete"]
    assert sorted(admitted) == sorted(j.name for j in jobs)
    assert sorted(completed) == sorted(j.name for j in jobs)
    # Dependencies respected: a job is admitted only after its deps
    # completed.
    events = [(e.kind, e.job) for e in scheduler.log]
    for job in jobs:
        for dep in job.after:
            assert events.index(("complete", dep)) < events.index(
                ("admit", job.name))


def test_lease_pool_accounting() -> None:
    lease = ClusterLease(8)
    a = lease.acquire("a", 3)
    b = lease.acquire("b", 3)
    assert len(set(a) | set(b)) == 6 and lease.available == 2
    with pytest.raises(TenancyError):
        lease.acquire("c", 3)      # only 2 free
    with pytest.raises(TenancyError):
        lease.acquire("a", 1)      # double lease
    assert lease.release("a") == a
    assert lease.available == 5
    with pytest.raises(TenancyError):
        lease.release("a")
    # Freed block is reused contiguously.
    assert lease.acquire("c", 3) == a


def test_scheduler_rejects_oversized_job() -> None:
    with pytest.raises(TenancyError):
        JobScheduler([JobSpec(name="big", tenant="t", n_workers=9)],
                     ClusterLease(8))
