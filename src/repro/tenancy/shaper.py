"""Weighted fair sharing of one physical link across tenants.

:class:`FairShaper` generalizes the single-owner
:class:`repro.live.transport.TokenBucket` to N tenants drawing from one
wire.  It implements *fluid* weighted fair queueing: the link's byte
credit accrues at ``rate_bytes_per_s`` and is split among **backlogged**
tenants (those in token debt) in proportion to their weights, piecewise —
when a debtor clears, the remaining credit is re-split among those still
backlogged.  Idle tenants therefore donate their share automatically
(work conservation), a tenant with weight :math:`w_i` backlogged against
competitors with weights :math:`w_j` drains at
:math:`w_i / \\sum_j w_j` of the link (weighted max-min fairness), and
every reservation's wait is bounded by the total outstanding debt over
the link rate (starvation freedom).  ``tests/tenancy/test_fairness.py``
holds all three properties under hypothesis.

:class:`TenantShare` is the adapter that makes one tenant's view of the
shaper duck-type a ``TokenBucket`` — ``reserve`` with the same
signature — so it drops into :class:`PrioritySender` /
:class:`AsyncPrioritySender` unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional


class _TenantState:
    __slots__ = ("name", "weight", "tokens")

    def __init__(self, name: str, weight: float, tokens: float) -> None:
        self.name = name
        self.weight = weight
        self.tokens = tokens


class FairShaper:
    """Fluid weighted-fair token allocation over one shared link."""

    def __init__(self, rate_bytes_per_s: float,
                 burst_bytes: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate_bytes_per_s must be positive")
        self.rate = float(rate_bytes_per_s)
        self.burst = float(burst_bytes if burst_bytes is not None
                           else max(1, int(rate_bytes_per_s // 10)))
        if self.burst <= 0:
            raise ValueError("burst_bytes must be positive")
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._wsum = 0.0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, weight: float = 1.0) -> "TenantShare":
        """Register a tenant; returns its sender-facing share handle.

        Like a fresh ``TokenBucket``, a new tenant starts with its burst
        share of tokens in hand (computed against the weights registered
        so far); earlier tenants keep whatever they have accrued.
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            self._wsum += weight
            st = _TenantState(name, weight,
                              self.burst * weight / self._wsum)
            self._tenants[name] = st
        return TenantShare(self, name)

    def _burst_cap(self, st: _TenantState) -> float:
        return self.burst * st.weight / self._wsum

    # ------------------------------------------------------------------
    # Credit flow
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Accrue ``(now - last) * rate`` bytes of credit and distribute.

        Phase 1 pays down debt: credit splits among debtors by weight,
        re-splitting each time one clears (work conservation lives
        here — only backlogged tenants share the wire).  Phase 2 banks
        any leftover as idle burst credit, weight-proportionally, capped
        at each tenant's burst share with spill to uncapped tenants.
        """
        dt = now - self._last
        self._last = now
        if dt <= 0 or not self._tenants:
            return
        credit = dt * self.rate
        states = self._tenants.values()
        for _ in range(len(self._tenants)):
            debtors = [t for t in states if t.tokens < 0]
            if not debtors or credit <= 0:
                break
            wsum = sum(t.weight for t in debtors)
            # Fraction of the credit at which the first debtor clears.
            f = min(1.0, min(-t.tokens * wsum / (t.weight * credit)
                             for t in debtors))
            for t in debtors:
                t.tokens += f * credit * t.weight / wsum
                if t.tokens > -1e-9:
                    t.tokens = 0.0
            credit *= (1.0 - f)
        if credit > 1e-12:
            for _ in range(len(self._tenants)):
                takers = [t for t in states
                          if t.tokens < self._burst_cap(t)]
                if not takers or credit <= 1e-12:
                    break
                wsum = sum(t.weight for t in takers)
                spill = 0.0
                for t in takers:
                    give = credit * t.weight / wsum
                    cap = self._burst_cap(t)
                    if t.tokens + give > cap:
                        spill += t.tokens + give - cap
                        t.tokens = cap
                    else:
                        t.tokens += give
                credit = spill

    def _drain_time(self, target: _TenantState) -> float:
        """Forward-simulate the fluid schedule until ``target`` clears.

        Piecewise linear: at each step the current debtor set shares the
        link by weight until the smallest debt clears, which raises the
        survivors' rates.  At most ``len(debts)`` pieces.
        """
        debts = {t.name: -t.tokens
                 for t in self._tenants.values() if t.tokens < 0}
        eps = 1e-9
        wait = 0.0
        while debts.get(target.name, 0.0) > 0:
            wsum = sum(self._tenants[n].weight for n in debts)
            step = min(debts[n] * wsum / (self._tenants[n].weight * self.rate)
                       for n in debts)
            wait += step
            for n in list(debts):
                debts[n] -= step * self.rate * self._tenants[n].weight / wsum
                if debts[n] <= eps:
                    del debts[n]
        return wait

    # ------------------------------------------------------------------
    # Sender-facing API (via TenantShare)
    # ------------------------------------------------------------------
    def reserve(self, tenant: str, nbytes: int) -> float:
        """Debit ``nbytes`` against ``tenant``; return seconds to wait
        before putting them on the wire (0.0 when within burst)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        with self._lock:
            st = self._tenants[tenant]
            self._advance(self._clock())
            st.tokens -= nbytes
            if st.tokens >= 0:
                return 0.0
            return self._drain_time(st)

    # ------------------------------------------------------------------
    # Introspection (tests / reports)
    # ------------------------------------------------------------------
    def tokens(self, tenant: str) -> float:
        with self._lock:
            return self._tenants[tenant].tokens

    def fair_rate(self, tenant: str) -> float:
        """The tenant's guaranteed floor when everyone is backlogged."""
        with self._lock:
            st = self._tenants[tenant]
            return self.rate * st.weight / self._wsum


class TenantShare:
    """One tenant's handle on a :class:`FairShaper`.

    Duck-types :class:`repro.live.transport.TokenBucket` (``reserve`` /
    ``rate`` / ``burst``) so a whole job's senders can be
    pointed at their tenant's fair share with zero sender changes.
    """

    __slots__ = ("shaper", "tenant")

    def __init__(self, shaper: FairShaper, tenant: str) -> None:
        self.shaper = shaper
        self.tenant = tenant

    def reserve(self, nbytes: int) -> float:
        return self.shaper.reserve(self.tenant, nbytes)

    @property
    def rate(self) -> float:
        return self.shaper.fair_rate(self.tenant)

    @property
    def burst(self) -> float:
        with self.shaper._lock:
            return self.shaper._burst_cap(self.shaper._tenants[self.tenant])
